import tracemalloc

import numpy as np
import pytest

from mimoaf import (
    CANONICAL_SIGMA,
    SampledSignal,
    chirp_multiply,
    cross_ambiguity,
    gen_gaussian,
    gen_lfm,
    gen_rect,
    gen_subcarrier_set,
    heisenberg_shift,
)
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


@pytest.fixture(scope="session")
def gauss256():
    return gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0)


@pytest.fixture(scope="session")
def rect256():
    return gen_rect(1.0, DT)


@pytest.fixture(scope="session")
def subcarriers2():
    return gen_subcarrier_set(2, 1.0, DT)
