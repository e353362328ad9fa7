"""Grid-general checks: the engine and every scalar verifier on grids the
generators never make, with odd and even n, any dt, a window start between
samples and Doppler counts that are not powers of two.  Each case passes,
or is refused with a MimoafError before any surface is built."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoaf import (
    MimoafError,
    SampledSignal,
    cross_ambiguity,
    verify_dilation,
    verify_fourier_rotation,
    verify_lfm_shear,
    verify_mirror,
)
from mimoaf import ambiguity, symmetry

from conftest import cross_ambiguity_oracle, frob_rel, lag_products


@st.composite
def _grids(draw):
    """(u, v, n_doppler): two modulated Gaussians near t = 0 on one window.

    Widths of 11-13 samples and a modulation under 1/64 of the sample rate
    keep each pulse in the lower half of the band, as dilation by 2 needs,
    and 116 or more samples hold it stretched by 2."""
    n = draw(st.integers(116, 131))
    # n dt^2 = 1 is the one grid the quarter turn accepts
    dt = 1 / math.sqrt(n) if draw(st.booleans()) else 10 ** draw(st.floats(-3.0, 1.0))
    t0 = (-(n // 2) + draw(st.integers(-3, 2)) + draw(st.floats(0.05, 0.95))) * dt
    n_doppler = 2 * draw(
        st.integers((n + 1) // 2, 3 * n // 2).filter(lambda m: m & (m - 1))
    )
    t = t0 + np.arange(n) * dt

    def pulse():
        c, w = draw(st.floats(-3.0, 3.0)) * dt, draw(st.floats(11.0, 13.0)) * dt
        f = draw(st.floats(-1 / 64, 1 / 64)) / dt
        return SampledSignal(np.exp(-math.pi * ((t - c) / w) ** 2 + 2j * math.pi * f * t), dt, t0)

    return pulse(), pulse(), n_doppler


def _sheared_direct_sum(u, v, n_doppler, rate):
    """exp(-i pi rate tau^2) chi(u, v)(tau, nu - rate tau), each cell a direct
    sum at its own sheared frequency: no roll, so no wrap and no period."""
    P, lags = lag_products(u, v, cyclic=False)
    tau, t = lags * u.dt, u.times
    rows = P * np.exp(-2j * math.pi * rate * np.outer(tau, t))
    chi = u.dt * rows @ np.exp(2j * math.pi * np.outer(t, ambiguity._doppler_axis(n_doppler, u.dt)))
    return chi * np.exp(-1j * math.pi * rate * tau**2)[:, None]


@settings(max_examples=30, deadline=None)
@given(_grids(), st.integers(1, 10**6), st.sampled_from([1, -1]))
def test_engine_and_verifiers_hold_on_any_grid(grid, extra, sign):
    u, v, n_doppler = grid
    dt = u.dt
    built = []
    fill = ambiguity._SurfaceBlocks.fill

    def counted(self, start, stop):
        built.append(self)
        return fill(self, start, stop)

    def passes_or_is_refused(check, **kwargs):
        before = len(built)
        try:
            rep = check(u, v, **kwargs)
        except MimoafError:
            assert len(built) == before, f"{check.__name__} refused after building a surface"
            return
        assert rep.passed, (rep.name, kwargs, rep.rel_err, rep.info)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ambiguity._SurfaceBlocks, "fill", counted)
        s = cross_ambiguity(u, v, n_doppler=n_doppler)
        assert frob_rel(s.values, cross_ambiguity_oracle(u, v, n_doppler=n_doppler).values) <= 1e-10
        if u.n % 2 == 0:
            cyc = cross_ambiguity(u, v, n_doppler=n_doppler, cyclic=True)
            oracle = cross_ambiguity_oracle(u, v, n_doppler=n_doppler, cyclic=True)
            assert frob_rel(cyc.values, oracle.values) <= 1e-10
        passes_or_is_refused(verify_mirror, n_doppler=n_doppler)
        passes_or_is_refused(verify_fourier_rotation)
        for bins_per_lag in (1, -1, 2, -2, 0.37):
            passes_or_is_refused(verify_lfm_shear, rate=bins_per_lag / (n_doppler * dt * dt),
                                 n_doppler=n_doppler)
        for b in (2.0, 0.5):
            passes_or_is_refused(verify_dilation, b=b, n_doppler=n_doppler)

    # N + 1 .. 2N - 1 bins per lag: every lag row but 0 rolls past a whole
    # period (q = floor(d / N) not 0 or -1), where the window start's
    # fraction leaves a wrap factor on each of the row's two runs
    bins_per_lag = sign * (n_doppler + 1 + extra % (n_doppler - 1))
    # the shear reads its step as rate N dt^2, so this rate is whole bins
    # per lag to a few ulp
    rate = bins_per_lag / (n_doppler * dt * dt)
    resample, aligned = symmetry._shear_resample(s.tau_axis, s.nu_axis, u, rate)
    out = resample(0, s.values)
    assert aligned
    assert frob_rel(out, _sheared_direct_sum(u, v, n_doppler, rate)) <= 1e-10


def test_aligned_shear_step_is_exact_on_long_rolls():
    # 443 bins per lag on 290 bins at dt = 0.01: a step read from the axis
    # difference s.d_nu is 443.0000000000088 and drifts 1.1e-9 bins over the
    # 130 lags, past the alignment snap, so the exact grid would take the
    # off-grid rotation; rate N dt^2 is exactly 443
    n, n_doppler, dt = 131, 290, 0.01
    t0 = (-65 + 0.4) * dt
    t = t0 + np.arange(n) * dt
    u = SampledSignal(np.exp(-math.pi * (t / (12 * dt)) ** 2), dt, t0)
    v = SampledSignal(np.exp(-math.pi * ((t - 2 * dt) / (11 * dt)) ** 2 + 0.3j * t / dt), dt, t0)
    rate = 443 / (n_doppler * dt * dt)
    s = cross_ambiguity(u, v, n_doppler=n_doppler)
    resample, aligned = symmetry._shear_resample(s.tau_axis, s.nu_axis, u, rate)
    out = resample(0, s.values)
    assert aligned
    assert frob_rel(out, _sheared_direct_sum(u, v, n_doppler, rate)) <= 1e-10
