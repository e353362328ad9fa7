import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mimoaf import (
    CANONICAL_SIGMA,
    GridAlignmentError,
    GridMismatchError,
    InvalidParameterError,
    SampledSignal,
    chirp_multiply,
    cross_ambiguity,
    gen_gaussian,
    gen_rect,
    gen_subcarrier_set,
    mimo_beams,
    verify_dilation,
    verify_fourier_rotation,
    verify_lfm_shear,
    verify_mimo_symmetry,
    verify_mirror,
)
from mimoaf import ambiguity, cli, symmetry

from conftest import DT_G, mixture_basis, random_mixture, traced_peak


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
    # on the cyclic n dt^2 = 1 grid the pullback along J^{-1}, s(-nu, tau),
    # lands every cell but those of Doppler column 0 on a grid point, and
    # the relabel reads the value there; column 0 reads lag +n/2, one
    # period past the grid's first lag row, which a direct sum gives
    u = cli._waveforms(family, **cli._ROTATION)[0]
    s = cross_ambiguity(u, n_doppler=u.n, cyclic=True)
    tau, nu = s.tau_axis.tolist(), s.nu_axis.tolist()
    column0, rest = symmetry._rotation_relabel(s)
    pulled = [[s.value_at(-nu_l, tau_a) for nu_l in nu[1:]] for tau_a in tau]
    assert np.array_equal(rest, np.array(pulled))
    with pytest.raises(GridAlignmentError):
        s.value_at(-nu[0], tau[0])
    n = u.n
    products = u.samples * np.conj(np.roll(u.samples, -(n // 2)))  # u[m] conj(u[m + n/2])
    direct = u.dt * np.exp(2j * math.pi * np.outer(s.tau_axis, u.times)) @ products
    assert column0.shape == (n, 1)
    assert np.max(np.abs(column0[:, 0] - direct)) <= 1e-12 * np.max(np.abs(s.values))


def test_rotation_reads_doppler_column_0(rot_gauss, monkeypatch):
    # a rotation-grid pair of noise puts about 1/n of the mass on the
    # relabel's column 0: zeroed, the check fails
    rng, n = np.random.default_rng(11), rot_gauss.n
    x, y = (rot_gauss.replace_samples(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for _ in range(2))
    assert verify_fourier_rotation(x, y).passed
    relabel = symmetry._rotation_relabel
    monkeypatch.setattr(symmetry, "_rotation_relabel", lambda s: (0 * relabel(s)[0], relabel(s)[1]))
    rep = verify_fourier_rotation(x, y)
    assert not rep.passed
    assert rep.rel_err >= 1e-2


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
    phase = np.ones((L, N), dtype=np.complex128)
    symmetry._tau_nu_phase(phase, np.arange(L) - L // 2, sign)
    # one table per size, shared by every caller, so none may write to it
    roots = symmetry._unit_roots(N)
    assert roots is symmetry._unit_roots(N) and not roots.flags.writeable
    rng = np.random.default_rng(5)
    cells = [(0, 0), (0, N - 1), (L - 1, 0), (L - 1, N - 1), (L // 2, N // 2)]
    cells += [tuple(c) for c in rng.integers(0, (L, N), size=(200, 2))]
    for i, j in cells:
        k = round(s.tau_axis[i] / u.dt)
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


def _nyquist_pair(t0_over_dt):
    # v = (-1)^n u puts two thirds of the mass of chi(v, u) on the
    # -Nyquist Doppler column, which reflects one period past bin 0
    n, dt = 256, 1 / 128
    u = SampledSignal(np.ones(n, dtype=np.complex128), dt, t0_over_dt * dt)
    return u, u.replace_samples((-1.0) ** np.arange(n) * u.samples)


@pytest.mark.parametrize("tol", [1e-9, 1.0, 10.0])
def test_nyquist_mirror_passes_at_any_tolerance(tol):
    # at a whole t0/dt the period factor is 1; at -127.7 it is exp(i 2 pi 0.3)
    for t0_over_dt in (-128, -127.7):
        rep = verify_mirror(*_nyquist_pair(t0_over_dt), n_doppler=256, tol=tol)
        assert rep.passed, t0_over_dt
        assert rep.rel_err <= 1e-15, t0_over_dt


@pytest.mark.parametrize("fraction", [lambda f: 0.0, lambda f: -f], ids=["dropped", "flipped"])
def test_mirror_bin_0_takes_the_period_factor(fraction, monkeypatch):
    # without the factor exp(i 2 pi f), or with its sign flipped, the
    # Nyquist column misses at order one
    shift = symmetry._window_shift
    monkeypatch.setattr(symmetry, "_window_shift", lambda u: (shift(u)[0], fraction(shift(u)[1])))
    rep = verify_mirror(*_nyquist_pair(-127.7), n_doppler=256, tol=10.0)
    assert rep.rel_err >= 1


def _with_zero(u):
    return u, u.replace_samples(np.zeros(u.n, dtype=np.complex128))


def _silent_beam(u):
    # u and -u, each of nonzero energy, cancel in the beam at fs = 0
    return [u, u.replace_samples(-u.samples)], 1.0, 0.0, 0.0


@pytest.mark.parametrize("check", [
    lambda u, z: verify_fourier_rotation(*_with_zero(gen_rect(8.0, 1 / 16))),
    lambda u, z: verify_mirror(u, z),
    lambda u, z: verify_mirror(z, u),
    lambda u, z: verify_lfm_shear(z),
    lambda u, z: verify_dilation(u, z),
    lambda u, z: verify_mimo_symmetry(*_silent_beam(u), verify_mirror),
], ids=["sym-J", "sym-mirror-v", "sym-mirror-u", "sym-lfm", "sym-dilate", "sym-mimo"])
def test_zero_energy_is_refused_before_any_surface(check, rect256, surface_builds):
    # both routes of a zero signal are zero, and their distance 0/0
    with pytest.raises(InvalidParameterError, match="nonzero energy"):
        check(*_with_zero(rect256))
    assert surface_builds == []


@pytest.mark.parametrize("check", [
    verify_fourier_rotation,
    lambda w: verify_lfm_shear(w, rate=1.0),
    lambda w: verify_dilation(w, b=2.0),
    lambda w: verify_dilation(w, b=0.5),
], ids=["sym-J", "sym-lfm", "sym-dilate", "sym-dilate-reciprocal"])
def test_overflowing_energy_is_refused_before_any_transform(check, rot_gauss, monkeypatch,
                                                            surface_builds):
    # the transforms of a signal past the float range overflow too (dilate's
    # band test squares its spectrum): the pair is refused before them
    calls = []
    for name in ("fourier", "chirp_multiply", "dilate"):
        def recorded(*args, _name=name, _fn=getattr(symmetry, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(symmetry, name, recorded)
    with pytest.raises(InvalidParameterError, match="past the float range"):
        check(rot_gauss.replace_samples(1e160 * rot_gauss.samples))
    assert calls == [] and surface_builds == []


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


@pytest.mark.parametrize("n_doppler", [None, 512])
def test_shear_aligned_fractional_window_start(n_doppler):
    # t0/dt = -31.70: a cell the roll wraps w times reads nu + w/dt, where
    # the surface takes the factor exp(i 2 pi w t0/dt), which is not 1
    n, dt = 64, 1 / 16
    t0 = -31.70 * dt
    t = t0 + np.arange(n) * dt
    u = SampledSignal(np.exp(-math.pi * t**2), dt, t0)
    v = SampledSignal(np.exp(-math.pi * (t - 0.3) ** 2 / 1.5), dt, t0)
    rep = verify_lfm_shear(u, v, rate=4.0, n_doppler=n_doppler)
    assert rep.info["aligned"] is True
    assert rep.passed and rep.rel_err <= 1e-12


@pytest.mark.parametrize("n_doppler, bins_per_lag", [(1024, 3), (1000, -5)])
def test_aligned_shear_gather_equals_row_rolls(gauss256, n_doppler, bins_per_lag):
    # the gather keeps every bit of rolling each lag row on its own
    s = cross_ambiguity(gauss256, n_doppler=n_doppler)
    dt = gauss256.dt
    rate = bins_per_lag / (n_doppler * dt * dt)
    resample, aligned = symmetry._shear_resample(s.tau_axis, s.nu_axis, gauss256, rate)
    out = resample(0, s.values)
    assert aligned
    lags = np.round(s.tau_axis / dt).astype(np.int64)
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


def test_dilation_reciprocal_factor_is_exact(wide_gauss):
    # b = 1/2 reads the dilated pair's parent surface: exact where the
    # bilinear blend of the surface of (u, u) missed the default tol at 1.2e-4
    rep = verify_dilation(wide_gauss, b=0.5)
    assert rep.passed
    assert rep.rel_err <= 1e-5
    assert rep.info["route"] == "reciprocal-parent"


def test_dilation_reciprocal_failure_is_real(wide_gauss):
    # stretched three times, the Gaussian leaves the window: the identity
    # fails on the grid, and the check says so
    rep = verify_dilation(wide_gauss, b=1 / 3)
    assert not rep.passed
    assert 1e-3 <= rep.rel_err <= 1e-2
    assert rep.info["route"] == "reciprocal-parent"


def test_dilation_off_grid_factor_is_refused(wide_gauss):
    with pytest.raises(GridAlignmentError):
        verify_dilation(wide_gauss, b=1.25)


def test_reciprocal_dilation_streams_its_parent():
    # the 8-fold parent is built on every 8th lag only (63 x 8192, 7.9 MiB,
    # not 511 x 8192) and streams beside route (a) a block at a time
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0)
    rep, peak = traced_peak(verify_dilation, u, b=1 / 8, n_doppler=1024)
    assert rep.info["route"] == "reciprocal-parent"
    assert peak <= 16 * 2**20


def test_dilation_parent_is_built_on_every_kth_lag(surface_builds):
    # route (b) reads every 8th lag row of the parent, so only those rows are
    # built: one 63 x 8192 parent, and route (a) on the same 63 lags
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0)
    verify_dilation(u, b=1 / 8, n_doppler=1024)
    assert surface_builds == [(63, 8192), (63, 1024)]


def test_mirror_runs_only_the_live_lag_rows(monkeypatch):
    # the rect pulse's two copies overlap only at lags -127 .. 127, so each
    # of the mirror's two loops hands its check 255 rows, from row 128, not
    # all 511
    rows, starts = [], []
    row_runs = symmetry._row_runs

    def counted(*loops):
        counts = [0] * len(loops)
        rows.append(counts)
        for start, blocks in row_runs(*loops):
            starts.append(start)
            for i, block in enumerate(blocks):
                counts[i] += len(block)
            yield start, blocks

    monkeypatch.setattr(symmetry, "_row_runs", counted)
    assert verify_mirror(gen_rect(1.0, 1 / 128)).passed
    assert rows == [[255, 255]] and starts[0] == 128


def test_extreme_dilation_holds_three_surfaces():
    # at b = 1/255 the parent is 3 rows of 255 x 1024 bins, 12 MiB: with the
    # rest of the check it stays within the three-surface rule of its grid
    u = gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0)
    rep, peak = traced_peak(verify_dilation, u, b=1 / 255, n_doppler=1024)
    assert rep.info["route"] == "reciprocal-parent"
    assert peak <= 3 * (2 * u.n - 1) * 1024 * 16 + ambiguity._BLOCK_BYTES


@pytest.mark.parametrize("b", [1 / 1000, 1000.0])
def test_dilation_factor_past_n_is_refused_first(wide_gauss, b, monkeypatch):
    # past k = n - 1 only lag 0 survives the stride; the factor is refused
    # before a signal is dilated or a 1000-fold parent allocated
    def never(*args, **kwargs):
        raise AssertionError("ran past the factor check")

    monkeypatch.setattr(symmetry, "dilate", never)
    monkeypatch.setattr(symmetry, "cross_ambiguity", never)
    with pytest.raises(InvalidParameterError):
        verify_dilation(wide_gauss, b=b)


# ----------------------------------------------------------------- mimo lifts

def test_mimo_single_element_matches_scalar(rot_gauss, wide_gauss):
    cases = [
        (verify_fourier_rotation, rot_gauss, {}),
        (verify_mirror, wide_gauss, {}),
        (verify_lfm_shear, wide_gauss, {"rate": 4.0}),
        (verify_dilation, wide_gauss, {"b": 2.0}),
    ]
    for check, u, kw in cases:
        rep = verify_mimo_symmetry([u], 1.0, 0.3, 0.7, check, **kw)
        assert rep.passed, check.__name__
        assert rep.rel_err == check(u, **kw).rel_err, check.__name__


@pytest.mark.parametrize(
    "check, kwargs",
    [
        (verify_fourier_rotation, {"tol": 1e-6}),
        (verify_mirror, {"n_doppler": 512, "tol": 1e-8}),
        (verify_lfm_shear, {"rate": 2.5, "n_doppler": 512, "tol": 1e-5}),
        (verify_dilation, {"b": 2.0, "n_doppler": 512, "tol": 1e-3}),
    ],
    ids=["rotation", "mirror", "shear", "dilation"],
)
def test_mimo_lift_is_the_scalar_check_on_the_beams(rot_gauss, wide_gauss, check, kwargs):
    # on an M = 2 phase family the lift is the scalar check on the beam pair,
    # field for field, with every keyword passed through
    base = rot_gauss if check is verify_fourier_rotation else wide_gauss
    thetas = np.random.default_rng(8).uniform(0, 2 * np.pi, size=2)
    waves = [base.replace_samples(np.exp(1j * t) * base.samples) for t in thetas]
    gamma = 1.0
    rep = verify_mimo_symmetry(waves, gamma, 0.3, 0.7, check, **kwargs)
    ref = check(*mimo_beams(waves, gamma, 0.3, 0.7), **kwargs)
    # CheckReport equality compares every field but info
    assert rep == replace(ref, name="sym-mimo")
    assert rep.info == {"kind": check.__name__, **ref.info}
    assert rep.tol == kwargs["tol"]
    assert rep.passed


def test_mimo_rotation_two_subcarriers():
    waves = list(gen_subcarrier_set(2, 8.0, 1 / 16))
    rep = verify_mimo_symmetry(waves, 1.0, 0.25, 0.25, verify_fourier_rotation)
    assert rep.passed
    assert rep.rel_err <= 1e-5


def test_mimo_mirror_swaps_beam_pair():
    subs = gen_subcarrier_set(2, 1.0, 1 / 128)
    rng = np.random.default_rng(3)
    waves = [subs[0], random_mixture([subs[0], subs[1], chirp_multiply(subs[0], 2.0)], rng)]
    gamma = 1.0
    fs, fsp = 0.3, 0.7
    rep = verify_mimo_symmetry(waves, gamma, fs, fsp, verify_mirror)
    assert rep.passed
    assert rep.rel_err <= 1e-9

    # dropping the (fs, fs') swap breaks the identity at order one, which
    # pins down that the reflection exchanges the two steering arguments
    pairs = [[cross_ambiguity(a, b) for b in waves] for a in waves]
    ref = pairs[0][0]
    w = 2 * math.pi * gamma

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
    gamma = 1.0
    rep_t = verify_mimo_symmetry(waves, gamma, 0.3, 0.7, verify_lfm_shear, rate=2.5)
    assert rep_t.passed
    assert rep_t.rel_err <= 1e-10
    rep_m = verify_mimo_symmetry(waves, gamma, 0.3, 0.7, verify_dilation, b=2.0)
    assert rep_m.passed
    assert rep_m.rel_err <= 1e-4
    rep_r = verify_mimo_symmetry(waves, gamma, 0.3, 0.7, verify_dilation, b=0.5)
    assert rep_r.passed
    assert rep_r.rel_err <= 1e-5
    assert rep_r.info["route"] == "reciprocal-parent"


def test_mimo_refuses_a_non_verifier(wide_gauss, monkeypatch):
    # anything but the four scalar verifiers is refused before a beam forms
    def never(*args, **kwargs):
        raise AssertionError("formed a beam")
    with monkeypatch.context() as m:
        m.setattr(symmetry, "mimo_beams", never)
        for check in (cross_ambiguity, lambda u, v, **kw: verify_mirror(u, v, **kw), None):
            with pytest.raises(InvalidParameterError):
                verify_mimo_symmetry([wide_gauss], 1.0, 0.0, 0.0, check)


@pytest.mark.parametrize(
    "check, kwargs",
    [
        (verify_lfm_shear, {"rate": math.nan}),
        (verify_lfm_shear, {"rate": math.inf}),
        (verify_lfm_shear, {"rate": -math.inf}),
        (verify_dilation, {"b": math.nan}),
        (verify_dilation, {"b": math.inf}),
        (verify_dilation, {"b": -1.0}),
    ],
    ids=["shear-nan", "shear-inf", "shear-minus-inf", "dilation-nan", "dilation-inf",
         "dilation-negative"],
)
@pytest.mark.parametrize("lifted", [False, True], ids=["scalar", "mimo"])
def test_bad_rate_or_factor_is_refused_first(wide_gauss, check, kwargs, lifted, monkeypatch):
    # a chirp rate that is not finite, or a dilation factor that is not
    # positive and finite, is refused before any surface is built, on its
    # own and lifted to a spatial slice
    def never(*args, **kwargs):
        raise AssertionError("built a surface")

    monkeypatch.setattr(symmetry, "cross_ambiguity", never)
    with pytest.raises(InvalidParameterError):
        if lifted:
            verify_mimo_symmetry([wide_gauss], 1.0, 0.3, 0.7, check, **kwargs)
        else:
            check(wide_gauss, **kwargs)


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
