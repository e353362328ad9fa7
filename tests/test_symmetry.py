import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimoaf import (
    CANONICAL_SIGMA,
    GridMismatchError,
    InvalidParameterError,
    SampledSignal,
    Sl2Element,
    SteeringConfig,
    act_on_surface,
    chirp_multiply,
    cross_ambiguity,
    gen_gaussian,
    gen_rect,
    gen_subcarrier_set,
    verify_dilation,
    verify_fourier_rotation,
    verify_lfm_shear,
    verify_mimo_symmetry,
    verify_mirror,
)
from mimoaf import cli, symmetry
from mimoaf.ambiguity import AmbiguitySurface

from conftest import DT_G, mixture_basis, random_mixture


@pytest.fixture(scope="module")
def rot_gauss():
    # n dt^2 = 1 so the discrete Fourier grid coincides with the time grid
    return gen_gaussian(CANONICAL_SIGMA, 1 / 16, 8.0)


@pytest.fixture(scope="module")
def rot_rect():
    return gen_rect(8.0, 1 / 16)


@pytest.fixture(scope="module")
def wide_gauss():
    return gen_gaussian(CANONICAL_SIGMA, DT_G, 4.0)


# ------------------------------------------------------------------ sl2 group

def test_generator_matrices():
    j = Sl2Element.rotation()
    assert (j.a, j.b, j.c, j.d) == (0.0, 1.0, -1.0, 0.0)
    t = Sl2Element.shear(3.0)
    assert (t.a, t.b, t.c, t.d) == (1.0, 0.0, 3.0, 1.0)
    m = Sl2Element.scaling(2.0)
    assert (m.a, m.d) == (2.0, 0.5)
    assert Sl2Element.mirror().matrix.tolist() == [[-1.0, 0.0], [0.0, -1.0]]


def test_determinant_enforced():
    with pytest.raises(InvalidParameterError):
        Sl2Element(1.0, 0.0, 0.0, 2.0)
    with pytest.raises(InvalidParameterError):
        Sl2Element.scaling(-1.0)
    # NaN slips past both "b <= 0" and "abs(det - 1) > tol"; inf gives det NaN
    for make in (
        lambda: Sl2Element.shear(math.nan),
        lambda: Sl2Element.scaling(math.nan),
        lambda: Sl2Element.scaling(math.inf),
        lambda: Sl2Element(1.0, math.inf, 0.0, 1.0),
    ):
        with pytest.raises(InvalidParameterError):
            make()


def test_compose_inverse_apply():
    g = Sl2Element.shear(0.7).compose(Sl2Element.scaling(1.5))
    gi = g.inverse()
    eye = g.compose(gi)
    assert np.allclose(eye.matrix, np.eye(2), atol=1e-15)
    tau, nu = g.apply(0.3, -0.4)
    assert np.allclose([tau, nu], g.matrix @ [0.3, -0.4])
    assert g.tag is None  # composition drops the generator tag


def test_rotation_powers():
    j = Sl2Element.rotation()
    j2 = j.compose(j)
    assert np.allclose(j2.matrix, -np.eye(2))
    j4 = j2.compose(j2)
    assert np.allclose(j4.matrix, np.eye(2))


# -------------------------------------------------------------- surface action

def test_identity_action_is_exact(rect256):
    s = cross_ambiguity(rect256)
    out = act_on_surface(s, Sl2Element.identity())
    assert np.array_equal(out.values, s.values)
    assert out.meta["coverage"] == 1.0


def test_double_rotation_is_point_reflection(rect256):
    s = cross_ambiguity(rect256)
    out = act_on_surface(s, Sl2Element.rotation().compose(Sl2Element.rotation()))
    flip = s.values[::-1, 1:][:, ::-1]
    # lag rows all pair up; Doppler bin 0 (-Nyquist) has no partner
    assert np.array_equal(out.values[:, 1:], flip)
    assert not out.meta["valid_mask"][:, 0].any()


def test_fourth_rotation_power_restores_surface(rot_gauss):
    s = cross_ambiguity(rot_gauss, n_doppler=rot_gauss.n, cyclic=True)
    cur = s
    for _ in range(4):
        cur = act_on_surface(cur, Sl2Element.rotation())
    # each remap zero-fills one unpaired edge line; the interior returns
    # to the start bit-for-bit
    assert np.array_equal(cur.values[1:, 1:], s.values[1:, 1:])


def test_scaling_action_matches_closed_form():
    u = gen_gaussian(CANONICAL_SIGMA, 1 / 32, 2.0)
    s = cross_ambiguity(u, n_doppler=32 * u.n)
    pulled = act_on_surface(s, Sl2Element.scaling(2.0))
    T, N = np.meshgrid(s.tau_axis, s.nu_axis, indexing="ij")
    closed = np.exp(-np.pi * ((2 * T) ** 2 + (N / 2) ** 2) / 2) * np.exp(
        -1j * np.pi * (2 * T) * (N / 2)
    )
    mask = pulled.meta["valid_mask"]
    rel = np.linalg.norm((pulled.values - closed)[mask]) / np.linalg.norm(closed[mask])
    assert rel <= 1e-4


def test_action_is_linear_in_the_surface(gauss256):
    s1 = cross_ambiguity(gauss256)
    s2 = cross_ambiguity(chirp_multiply(gauss256, 2.0))
    a, b = 0.8 - 0.3j, -1.1 + 0.6j
    mix = AmbiguitySurface(
        a * s1.values + b * s2.values, s1.tau_axis, s1.nu_axis, s1.kind, s1.dt, s1.t0
    )
    g = Sl2Element.shear(0.4)
    lhs = act_on_surface(mix, g).values
    rhs = a * act_on_surface(s1, g).values + b * act_on_surface(s2, g).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_group_law_within_interpolation_error():
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0)
    s = cross_ambiguity(u)
    T, N = np.meshgrid(s.tau_axis, s.nu_axis, indexing="ij")

    def closed_at(g):
        st, sn = g.a * T + g.b * N, g.c * T + g.d * N
        return np.exp(-np.pi * (st ** 2 + sn ** 2) / 2) * np.exp(-1j * np.pi * st * sn)

    def rel(x, y, m):
        return np.linalg.norm((x - y)[m]) / max(np.linalg.norm(y[m]), 1e-300)

    gens = [
        Sl2Element.rotation(),
        Sl2Element.shear(0.5),
        Sl2Element.scaling(1.5),
        Sl2Element.mirror(),
    ]
    rng = np.random.default_rng(0)
    for _ in range(6):
        gi, hi = rng.choice(len(gens), 2)
        g, h = gens[gi], gens[hi]
        nested = act_on_surface(act_on_surface(s, g), h)
        composed = act_on_surface(s, g.compose(h))
        m = nested.meta["valid_mask"] & composed.meta["valid_mask"]
        truth = closed_at(g.compose(h))
        single = max(rel(nested.values, truth, m), rel(composed.values, truth, m))
        assert rel(nested.values, composed.values, m) <= 2 * single + 1e-12
        assert single <= 5e-3


# ------------------------------------------------------------------- rotation

def test_fourier_rotation_gaussian(rot_gauss):
    rep = verify_fourier_rotation(rot_gauss)
    assert rep.passed
    assert rep.rel_err <= 1e-5


def test_fourier_rotation_rect_and_cross(rot_gauss, rot_rect):
    assert verify_fourier_rotation(rot_rect).passed
    rep = verify_fourier_rotation(rot_gauss, rot_rect)
    assert rep.passed


def test_fourier_rotation_needs_matched_grid(rect256):
    with pytest.raises(GridMismatchError):
        verify_fourier_rotation(rect256)


@pytest.mark.parametrize("family", cli.FAMILIES)
def test_rotation_relabel_is_the_pullback(family):
    # on the cyclic n dt^2 = 1 grid, the pullback along J^{-1} lands every
    # point but Doppler column 0 on a grid point; the relabel reads the same
    # values (array_equal: a blend of exact weights may flip a zero's sign)
    u = cli._rotation_waveform(family)
    s = cross_ambiguity(u, n_doppler=u.n, cyclic=True)
    pulled = act_on_surface(s, Sl2Element.rotation().inverse())
    mask = pulled.meta["valid_mask"]
    assert mask[:, 1:].all() and not mask[:, 0].any()
    assert np.array_equal(pulled.values[:, 1:], symmetry._rotation_relabel(s))


# ---------------------------------------------------------------- phase table

@pytest.mark.parametrize(
    "n, n_doppler, cyclic", [(256, 1024, False), (256, 256, True), (100, 250, False)]
)
@pytest.mark.parametrize("sign", [1, -1])
def test_tau_nu_phase_is_the_exact_root_of_unity(n, n_doppler, cyclic, sign):
    # tau_k nu_j = k (j - N/2) / N exactly, whatever dt is; each sampled cell
    # of the table route is within 2 ulp of cmath.exp of that rational
    u = SampledSignal(np.ones(n, dtype=np.complex128), 0.37 / n, -0.1)
    s = cross_ambiguity(u, n_doppler=n_doppler, cyclic=cyclic)
    L, N = s.values.shape
    phase = symmetry._tau_nu_phase(np.ones((L, N), dtype=np.complex128), sign)
    rng = np.random.default_rng(5)
    cells = [(0, 0), (0, N - 1), (L - 1, 0), (L - 1, N - 1), (L // 2, N // 2)]
    cells += [tuple(c) for c in rng.integers(0, (L, N), size=(200, 2))]
    for i, j in cells:
        k = round(s.tau_axis[i] / s.dt)
        assert k == i - L // 2
        r = Fraction(sign * k * (j - N // 2), N) % 1
        ref = cmath.exp(2j * math.pi * float(r - 1 if r > 0.5 else r))
        assert abs(phase[i, j].real - ref.real) <= 2 * np.spacing(1.0), (i, j)
        assert abs(phase[i, j].imag - ref.imag) <= 2 * np.spacing(1.0), (i, j)


def test_conjugated_phase_table_breaks_rotation_and_mirror(rot_gauss, gauss256, monkeypatch):
    # the table's sign is what the two identities test: a conjugated table
    # fails both at order one
    roots = symmetry._unit_roots
    monkeypatch.setattr(symmetry, "_unit_roots", lambda n: np.conj(roots(n)))
    v = chirp_multiply(gauss256, 1.0)
    for rep in (verify_fourier_rotation(rot_gauss), verify_mirror(gauss256, v)):
        assert not rep.passed, rep.name
        assert rep.rel_err >= 0.1, rep.name


# --------------------------------------------------------------------- mirror

def test_mirror_self_and_cross(gauss256):
    rep = verify_mirror(gauss256)
    assert rep.passed
    assert rep.rel_err <= 1e-9
    rng = np.random.default_rng(1)
    basis = mixture_basis(gauss256)
    rep2 = verify_mirror(random_mixture(basis, rng), random_mixture(basis, rng))
    assert rep2.passed
    assert rep2.info["coverage"] >= 0.9


# ---------------------------------------------------------------------- shear

def test_shear_zero_rate_is_identity(gauss256):
    rep = verify_lfm_shear(gauss256, rate=0.0)
    assert rep.passed
    assert rep.rel_err <= 1e-12
    assert rep.info["aligned"] is True


def test_shear_aligned_rate(gauss256):
    rep = verify_lfm_shear(gauss256, rate=4.0)
    assert rep.passed
    assert rep.rel_err <= 1e-12
    assert rep.info["aligned"] is True


@pytest.mark.parametrize("n_doppler, bins_per_lag", [(1024, 3), (1000, -5)])
def test_aligned_shear_gather_equals_row_rolls(gauss256, n_doppler, bins_per_lag):
    # the gather keeps every bit of rolling each lag row on its own
    s = cross_ambiguity(gauss256, n_doppler=n_doppler)
    rate = bins_per_lag / (n_doppler * s.dt * s.dt)
    out, aligned = symmetry._shear_resample(s, rate)
    assert aligned
    lags = np.round(s.tau_axis / s.dt).astype(np.int64)
    rolled = np.array([np.roll(row, k * bins_per_lag) for k, row in zip(lags, s.values)])
    rolled *= np.exp(-1j * math.pi * rate * s.tau_axis**2)[:, None]
    assert np.array_equal(out, rolled)


def test_shear_fractional_rate(rect256, gauss256):
    for u, rate in [(rect256, 8.0), (gauss256, 2.5), (gauss256, -3.7)]:
        rep = verify_lfm_shear(u, rate=rate)
        assert rep.passed
        assert rep.rel_err <= 1e-12
        assert rep.info["aligned"] is False


def test_shear_cross_pair(gauss256):
    v = chirp_multiply(gauss256, 1.0)
    rep = verify_lfm_shear(gauss256, v, rate=0.618)
    assert rep.passed
    assert rep.rel_err <= 1e-10


def test_chirping_narrows_the_delay_cut(rect256):
    def width(u):
        s = cross_ambiguity(u)
        cut = np.abs(s.values[:, s.doppler_index(0.0)])
        return float(np.sum(cut >= cut.max() / math.sqrt(2)) * s.d_tau)

    plain = width(rect256)
    chirped = width(chirp_multiply(rect256, 8.0))
    assert plain == pytest.approx(0.5859375)
    assert chirped == pytest.approx(0.1015625)
    assert chirped < plain / 5


# ------------------------------------------------------------------- dilation

def test_dilation_unit_factor_is_exact(wide_gauss):
    rep = verify_dilation(wide_gauss, b=1.0)
    assert rep.passed
    assert rep.rel_err <= 1e-15
    assert rep.info["route"] == "exact-parent"


def test_dilation_integer_factor(wide_gauss):
    rep = verify_dilation(wide_gauss, b=2.0)
    assert rep.passed
    assert rep.rel_err <= 1e-4
    assert rep.info["route"] == "exact-parent"


def test_dilated_gaussian_closed_form(wide_gauss):
    b = 2.0
    from mimoaf import dilate

    s = cross_ambiguity(dilate(wide_gauss, b))
    T, N = np.meshgrid(s.tau_axis, s.nu_axis, indexing="ij")
    closed = (1 / b) * np.exp(-np.pi * ((b * T) ** 2 + (N / b) ** 2) / 2) * np.exp(
        -1j * np.pi * (b * T) * (N / b)
    )
    assert np.max(np.abs(s.values - closed)) <= 1e-4
    assert s.energy() == pytest.approx(wide_gauss.energy() ** 2 / b ** 2, rel=1e-5)


def test_dilation_fractional_factor_uses_bilinear(wide_gauss):
    rep = verify_dilation(wide_gauss, b=1.25, tol=1e-2)
    assert rep.passed
    assert rep.info["route"] == "bilinear"
    assert rep.rel_err <= 1e-2


# ----------------------------------------------------------------- mimo lifts

def test_mimo_single_element_matches_scalar(rot_gauss, wide_gauss):
    cfg = SteeringConfig(1, 1.0, 8)
    cases = [
        (Sl2Element.rotation(), rot_gauss, verify_fourier_rotation(rot_gauss)),
        (Sl2Element.mirror(), wide_gauss, verify_mirror(wide_gauss)),
        (Sl2Element.shear(-4.0), wide_gauss, verify_lfm_shear(wide_gauss, rate=4.0)),
        (Sl2Element.scaling(2.0), wide_gauss, verify_dilation(wide_gauss, b=2.0)),
    ]
    for g, u, scalar_rep in cases:
        rep = verify_mimo_symmetry([u], cfg, 0.3, 0.7, g)
        assert rep.passed, g.tag
        assert rep.rel_err == scalar_rep.rel_err, g.tag


def test_mimo_rotation_two_subcarriers():
    waves = list(gen_subcarrier_set(2, 8.0, 1 / 16))
    cfg = SteeringConfig(2, 1.0, 8)
    rep = verify_mimo_symmetry(waves, cfg, 0.25, 0.25, Sl2Element.rotation())
    assert rep.passed
    assert rep.rel_err <= 1e-5


def test_mimo_mirror_swaps_beam_pair():
    subs = gen_subcarrier_set(2, 1.0, 1 / 128)
    rng = np.random.default_rng(3)
    waves = [subs[0], random_mixture([subs[0], subs[1], chirp_multiply(subs[0], 2.0)], rng)]
    cfg = SteeringConfig(2, 1.0, 8)
    fs, fsp = 0.3, 0.7
    rep = verify_mimo_symmetry(waves, cfg, fs, fsp, Sl2Element.mirror())
    assert rep.passed
    assert rep.rel_err <= 1e-9

    # dropping the (fs, fs') swap breaks the identity at order one, which
    # pins down that the reflection exchanges the two steering arguments
    pairs = [[cross_ambiguity(a, b) for b in waves] for a in waves]
    ref = pairs[0][0]
    w = 2 * math.pi * cfg.gamma

    def combine(fa, fb):
        out = np.zeros_like(ref.values)
        for i in range(2):
            for j in range(2):
                out += pairs[i][j].values * np.exp(1j * w * (fa * i - fb * j))
        return out

    S = combine(fs, fsp)
    phase = np.exp(-1j * 2 * math.pi * np.outer(ref.tau_axis, ref.nu_axis))
    flipped = S[::-1, 1:][:, ::-1]
    good = np.conj(combine(fsp, fs)) * phase
    bad = np.conj(S) * phase
    rel_good = np.linalg.norm(flipped - good[:, 1:]) / np.linalg.norm(good[:, 1:])
    rel_bad = np.linalg.norm(flipped - bad[:, 1:]) / np.linalg.norm(bad[:, 1:])
    assert rel_good <= 1e-9
    assert rel_bad >= 1e-3


def test_mimo_shear_and_scaling(wide_gauss):
    rng = np.random.default_rng(6)
    thetas = rng.uniform(0, 2 * np.pi, size=2)
    waves = [wide_gauss.replace_samples(np.exp(1j * t) * wide_gauss.samples) for t in thetas]
    cfg = SteeringConfig(2, 1.0, 8)
    rep_t = verify_mimo_symmetry(waves, cfg, 0.3, 0.7, Sl2Element.shear(-2.5))
    assert rep_t.passed
    assert rep_t.rel_err <= 1e-10
    rep_m = verify_mimo_symmetry(waves, cfg, 0.3, 0.7, Sl2Element.scaling(2.0))
    assert rep_m.passed
    assert rep_m.rel_err <= 1e-4


def test_mimo_requires_tagged_generator(wide_gauss):
    cfg = SteeringConfig(1, 1.0, 8)
    g = Sl2Element.shear(1.0).compose(Sl2Element.shear(-1.0))
    with pytest.raises(InvalidParameterError):
        verify_mimo_symmetry([wide_gauss], cfg, 0.0, 0.0, g)
    with pytest.raises(GridMismatchError):
        verify_mimo_symmetry([wide_gauss, wide_gauss], cfg, 0.0, 0.0, Sl2Element.mirror())


# ----------------------------------------------------------- randomized sweeps

@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
@example(1e-9)  # per-lag step within the snap of 0, last row 6e-8 bins off
def test_shear_rate_sweep(rate):
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0)
    rep = verify_lfm_shear(u, rate=rate)
    assert rep.passed
    assert rep.rel_err <= 1e-10


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_mirror_random_mixtures(seed):
    rng = np.random.default_rng(seed)
    basis = mixture_basis(gen_rect(1.0, DT_G))
    rep = verify_mirror(random_mixture(basis, rng), random_mixture(basis, rng))
    assert rep.passed
