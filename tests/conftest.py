import math
import tracemalloc

import numpy as np
import pytest

from mimoaf import (
    CANONICAL_SIGMA,
    AmbiguitySurface,
    SampledSignal,
    chirp_multiply,
    cross_ambiguity,
    gen_gaussian,
    gen_lfm,
    gen_rect,
    gen_subcarrier_set,
    heisenberg_shift,
)
from mimoaf import ambiguity
from mimoaf.ambiguity import _check_doppler_count, _doppler_axis, _lag_rows
from mimoaf.signals import HeisenbergPoint

DT = 1.0 / 128  # rect-family grid: T=1, pad 2 -> 256 samples
DT_G = 1.0 / 64  # Gaussian grid: half_width 2 -> 256 samples


def rel_max(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-30))


def frob_rel(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30))


def family_waveforms():
    """One representative per family on 256-sample grids."""
    return {
        "rect": gen_rect(1.0, DT),
        "gaussian": gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0),
        "lfm": gen_lfm(1.0, 4.0, DT),
        "subcarrier": gen_subcarrier_set(2, 1.0, DT)[0],
    }


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak of that call in bytes)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def lag_products(u, v, cyclic):
    """(P, lags): every row of the lag products P[i, n] = u[n] conj(v[n + lag_i])
    at once, from the gather the surface loop reads in blocks."""
    lags, gather = _lag_rows(u, v, cyclic)
    P = np.empty((lags.size, u.n), dtype=np.complex128)
    gather(0, P)
    return P, lags


def cross_ambiguity_oracle(u, v=None, n_doppler=None, cyclic=False) -> AmbiguitySurface:
    """Brute-force twin of cross_ambiguity: the defining series summed
    against the dense kernel exp(i 2 pi nu t_n) with absolute sample times.
    It shares nothing with the FFT surface past the lag products."""
    if v is None:
        v = u
    u.require_compatible(v)
    n_doppler = _check_doppler_count(n_doppler, u.n, cyclic)
    P, lags = lag_products(u, v, cyclic)
    nu_axis = _doppler_axis(n_doppler, u.dt)
    kernel = np.exp(1j * 2.0 * math.pi * np.outer(u.times, nu_axis))
    return AmbiguitySurface(u.dt * (P @ kernel), lags * u.dt, nu_axis)


def ambiguity_from_wigner(w, tau_axis, nu_axis) -> AmbiguitySurface:
    """The Wigner distribution mapped back to the ambiguity plane,

        chi(tau, nu) = exp(-i pi nu tau) *
                       integral W(t, f) exp(i 2 pi nu t) exp(-i 2 pi f tau) dt df,

    by dense quadrature on the given axes: a second route to the surface."""
    dt = w.tau_axis[1] - w.tau_axis[0]
    d_freq = w.nu_axis[1] - w.nu_axis[0]
    Et = np.exp(1j * 2.0 * math.pi * np.outer(w.tau_axis, nu_axis))
    Ef = np.exp(-1j * 2.0 * math.pi * np.outer(w.nu_axis, tau_axis))
    vals = (Ef.T @ (w.values.T @ Et)) * (dt * d_freq)
    vals *= np.exp(-1j * math.pi * np.outer(tau_axis, nu_axis))
    return AmbiguitySurface(vals, tau_axis, nu_axis)


def random_mixture(basis, rng) -> SampledSignal:
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    total = sum(ci * b.samples for ci, b in zip(c, basis))
    out = basis[0].replace_samples(total)
    return out.replace_samples(out.samples / out.norm())


def mixture_basis(u: SampledSignal):
    """Signal, a shifted copy, and a chirped copy: enough to span generic
    test mixtures while staying inside the padded window."""
    return [
        u,
        heisenberg_shift(u, HeisenbergPoint(8 * u.dt, 1.0)),
        chirp_multiply(u, 2.0),
    ]


def pair_surfaces(waveforms, n_doppler=None):
    """entries[i, j] = cross_ambiguity(u_i, u_j).values for every ordered
    pair: the M^2-surface reference for the beam, trace and direct-sum routes."""
    return np.stack(
        [[cross_ambiguity(u, v, n_doppler=n_doppler).values for v in waveforms] for u in waveforms]
    )


@pytest.fixture
def surface_builds(monkeypatch):
    """(lags, Doppler bins) of each surface the block loop sets up, in order."""
    built = []
    init = ambiguity._SurfaceBlocks.__init__

    def recorded(self, gathers, n, tau_axis, nu_axis, *args):
        built.append((tau_axis.size, nu_axis.size))
        init(self, gathers, n, tau_axis, nu_axis, *args)

    monkeypatch.setattr(ambiguity._SurfaceBlocks, "__init__", recorded)
    return built


@pytest.fixture(scope="session")
def gauss256():
    return gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0)


@pytest.fixture(scope="session")
def rect256():
    return gen_rect(1.0, DT)


@pytest.fixture(scope="session")
def subcarriers2():
    return gen_subcarrier_set(2, 1.0, DT)
