import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoaf import (
    CANONICAL_SIGMA,
    AmbiguitySurface,
    GridAlignmentError,
    GridMismatchError,
    InvalidParameterError,
    canonical_gaussian,
    chirp_multiply,
    cross_ambiguity,
    gen_gaussian,
    gen_lfm,
    gen_rect,
    gen_subcarrier_set,
    heisenberg_shift,
    inner_product,
    mimo_ambiguity,
    mimo_beams,
    mimo_energy_quadrature,
    mimo_inner_product,
    mimo_slice_spatial,
    spatial_integral,
    wigner,
)
from mimoaf import ambiguity
from mimoaf.ambiguity import _BLOCK_BYTES, _lag_rows, _steering_phases, _surface
from mimoaf.signals import HeisenbergPoint, SampledSignal

from conftest import (
    DT,
    DT_G,
    ambiguity_from_wigner,
    cross_ambiguity_oracle,
    family_waveforms,
    frob_rel,
    lag_products,
    mixture_basis,
    pair_surfaces,
    random_mixture,
    traced_peak,
)


# ------------------------------------------------------- oracle equivalence

@pytest.mark.parametrize("cyclic", [False, True])
def test_fft_matches_direct_sum_oracle(cyclic):
    for name, u in family_waveforms().items():
        v = chirp_multiply(u, 1.0)
        fast = cross_ambiguity(u, v, cyclic=cyclic)
        slow = cross_ambiguity_oracle(u, v, cyclic=cyclic)
        assert frob_rel(fast.values, slow.values) <= 1e-10, name


def test_oracle_equivalence_odd_sizes():
    u = gen_gaussian(CANONICAL_SIGMA, 1 / 48, 2.0)
    fast = cross_ambiguity(u, n_doppler=4 * u.n)
    slow = cross_ambiguity_oracle(u, n_doppler=4 * u.n)
    assert frob_rel(fast.values, slow.values) <= 1e-10


@pytest.mark.parametrize("cyclic", [False, True])
def test_fft_matches_oracle_off_power_of_two(cyclic):
    # Doppler counts that are not powers of two, where pocketfft rounds the
    # sign-flipped input differently from a shifted output, and a window
    # start off the sample grid, so the phase exp(i 2 pi nu t0) is not a
    # whole number of turns per bin.
    for name, w in family_waveforms().items():
        u = SampledSignal(w.samples, w.dt, w.t0 + 0.37 * w.dt)
        v = chirp_multiply(heisenberg_shift(u, HeisenbergPoint(3 * u.dt, 0.5)), 1.0)
        n_doppler = (u.n if cyclic else 4 * u.n) + 2
        fast = cross_ambiguity(u, v, n_doppler=n_doppler, cyclic=cyclic)
        slow = cross_ambiguity_oracle(u, v, n_doppler=n_doppler, cyclic=cyclic)
        assert fast.n_doppler == n_doppler
        assert frob_rel(fast.values, slow.values) <= 1e-10, name


@pytest.mark.parametrize("n,n_doppler,cyclic,shift", [
    (64, 256, False, -32),    # even, negative, wraps (the generators' window)
    (64, 256, False, -33),    # odd, negative, wraps
    (64, 256, False, 0),      # even, no wrap
    (64, 256, False, 5),      # odd, positive, no wrap
    (64, 256, False, 201),    # odd, positive, wraps
    (64, 256, False, -611),   # odd, |s| > N, no wrap
    (64, 256, False, 1000),   # even, |s| > N, wraps
    (63, 200, False, -77),    # odd n, N not a power of two, no wrap
    (63, 200, False, 150),    # odd n, N not a power of two, wraps
    (64, 64, True, -33),      # odd, wraps
    (64, 64, True, 128),      # even, |s| > N, no wrap
    (64, 64, True, -131),     # odd, |s| > N, wraps
    (64, 66, True, 7),        # odd, N not a power of two, wraps
    (64, 256, False, -31.7),  # a fraction left for the residual phase
    (64, 66, True, 12.25),
])
def test_fft_matches_oracle_at_window_shifts(n, n_doppler, cyclic, shift):
    # the window start t0 = s dt places product m in column (m + s) mod N
    # with the sign (-1)^(m+s): odd s, wrapped runs and shifts past N each
    # move the placement or the sign, and the oracle shares none of it
    rng = np.random.default_rng(n_doppler + 7 * n)
    dt = 1 / 16
    u, v = (
        SampledSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), dt, shift * dt)
        for _ in range(2)
    )
    fast = cross_ambiguity(u, v, n_doppler=n_doppler, cyclic=cyclic)
    slow = cross_ambiguity_oracle(u, v, n_doppler=n_doppler, cyclic=cyclic)
    assert frob_rel(fast.values, slow.values) <= 1e-10


def test_window_start_past_float_range_is_refused():
    # t0/dt = 1e300 / 1e-300 overflows, so the window has no whole shift and
    # the direct sum's phase nu t_n overflows too
    u = SampledSignal(np.ones(8, dtype=np.complex128), 1e-300, 1e300)
    with pytest.raises(InvalidParameterError, match="t0/dt"):
        cross_ambiguity(u)
    nu = float(np.fft.fftshift(np.fft.fftfreq(32, d=u.dt))[17])
    with pytest.raises(InvalidParameterError, match="t0/dt"):
        mimo_slice_spatial([u], 1.0, 0.0, nu, 4, n_doppler=32)


def test_cross_ambiguity_peak_memory(gauss256):
    # The surface X, the one block buffer the loop streams through and one
    # block of lag products are the only arrays of size alive at once; the
    # whole lag-product array would add (2n-1) x n.  The last MiB covers the
    # axes, the padded windows and numpy's ufunc buffers.
    n, n_doppler = gauss256.n, 1024
    x_bytes = (2 * n - 1) * n_doppler * 16
    rows = min(2 * n - 1, _BLOCK_BYTES // (16 * n_doppler))
    block_bytes = rows * n * 16
    assert block_bytes < (2 * n - 1) * n * 16
    s, peak = traced_peak(cross_ambiguity, gauss256, n_doppler=n_doppler)
    assert s.values.nbytes == x_bytes
    assert peak <= x_bytes + _BLOCK_BYTES + block_bytes + 2**20


def _lag_products_loop(us, vs, cyclic):
    # one row per lag, as a plain loop: the reference for the window gather
    n = us.size
    if cyclic:
        lags = np.arange(-(n // 2), n // 2)
        return np.array([us * np.conj(np.roll(vs, -k)) for k in lags]), lags
    lags = np.arange(-(n - 1), n)
    P = np.zeros((lags.size, n), dtype=np.complex128)
    for i, k in enumerate(lags):
        if k >= 0:
            P[i, : n - k] = us[: n - k] * np.conj(vs[k:])
        else:
            P[i, -k:] = us[-k:] * np.conj(vs[: n + k])
    return P, lags


@pytest.mark.parametrize("n,cyclic", [
    (2, False), (7, False), (8, False), (256, False), (2, True), (8, True), (256, True),
])
def test_lag_products_match_loop(n, cyclic):
    rng = np.random.default_rng(n)
    us = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    us[:2] = -0.0  # signed zeros make any stray product visible in the bits
    u, v = SampledSignal(us, 0.01, 0.0), SampledSignal(vs, 0.01, 0.0)
    P, lags = lag_products(u, v, cyclic)
    P_ref, lags_ref = _lag_products_loop(us, vs, cyclic)
    assert np.array_equal(lags, lags_ref)
    assert P.tobytes() == P_ref.tobytes()
    # the linear mask is one shared read-only table per n
    inside = ambiguity._inside_windows(n)
    assert inside is ambiguity._inside_windows(n) and not inside.flags.writeable
    # the surface loop multiplies blocks of rows straight from the windows
    # into one reused buffer, writing the cells inside the mask and leaving
    # every other one as it was (NaN here; the loop zero-fills each block)
    for size in (1, 7, lags.size + 3):
        lags_b, windows, inside = _lag_rows(v, cyclic)
        mask = np.ones(windows.shape, dtype=bool) if inside is None else inside
        term = (np.broadcast_to(us, windows.shape), windows,
                None if inside is None else inside.__getitem__)
        buf = np.empty((min(size, lags.size), n), dtype=np.complex128)
        blocks = []
        for start in range(0, lags.size, size):
            block = buf[: min(size, lags.size - start)]
            rows = slice(start, start + len(block))
            block.fill(np.nan)
            ambiguity._multiply(term, rows, block, [(slice(None), slice(None))])
            assert np.isnan(block[~mask[rows]]).all()
            block[~mask[rows]] = 0
            blocks.append(block.tobytes())
        assert np.array_equal(lags_b, lags_ref)
        assert b"".join(blocks) == P_ref.tobytes(), size


def _one_ifft(P, n_doppler, u):
    # every lag row at once by the block loop's formula: with t0/dt = s + f,
    # product m times dt (-1)^(m+s) in column (m+s) mod n_doppler, one
    # unscaled inverse FFT, then the residual phase of f when f != 0
    x = u.t0 / u.dt
    s = round(x)
    f = x - s
    m = np.arange(P.shape[1])
    w = np.where((m + s) % 2, -u.dt, u.dt)
    X = np.zeros((P.shape[0], n_doppler), dtype=np.complex128)
    X.real[:, (m + s) % n_doppler] = P.real * w
    X.imag[:, (m + s) % n_doppler] = P.imag * w
    X = np.fft.ifft(X, axis=1, norm="forward")
    if f != 0.0:
        X *= np.exp((1j * 2.0 * math.pi * f / n_doppler) * (np.arange(n_doppler) - n_doppler // 2))
    return X


@pytest.mark.parametrize("n,n_doppler,cyclic", [
    (256, 1024, False), (256, 1000, False), (255, 1020, False), (2, 4, False),
    (256, 256, True), (100, 100, True),
])
@pytest.mark.parametrize("rows", [1, 7, None])
def test_blocked_surface_matches_one_ifft(n, n_doppler, cyclic, rows, monkeypatch):
    # one batched ifft over every lag row, as the surface was built before
    # it was blocked: pocketfft transforms each row on its own, so the
    # block size must not change a bit
    if rows is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", rows * 16 * n_doppler)
    rng = np.random.default_rng(n_doppler)
    u, v = (
        SampledSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1 / 64, -0.37)
        for _ in range(2)
    )
    P, lags = lag_products(u, v, cyclic)
    X = _one_ifft(P, n_doppler, u)
    s = cross_ambiguity(u, v, n_doppler=n_doppler, cyclic=cyclic)
    assert s.values.tobytes() == X.tobytes()
    nu = np.fft.fftshift(np.fft.fftfreq(n_doppler, d=u.dt))
    assert np.array_equal(s.tau_axis, lags * u.dt) and np.array_equal(s.nu_axis, nu)


@pytest.mark.parametrize("n,cyclic", [(7, False), (8, False), (33, False), (8, True), (64, True)])
@pytest.mark.parametrize("n_pairs", [1, 2])
@pytest.mark.parametrize("shift", [-3.0, -23.68], ids=["whole", "fractional"])
@pytest.mark.parametrize("rows", [None, 3])
def test_strided_surface_is_every_kth_row(n, cyclic, n_pairs, shift, rows, monkeypatch):
    # a stride of k keeps every k-th lag row of the full surface, counted out
    # from lag 0's row c, to the bit: rows c % k, c % k + k, ...
    dt = 1 / 64
    N = 2 * n + 6  # not a power of two
    if rows is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", rows * 16 * N)
    rng = np.random.default_rng(n + 10 * n_pairs)
    sigs = [
        SampledSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), dt, shift * dt)
        for _ in range(2 * n_pairs)
    ]
    pairs = list(zip(sigs[::2], sigs[1::2]))
    full = _surface(pairs, N, cyclic)
    c = n // 2 if cyclic else n - 1
    for k in (1, 2, 3, n - 1):
        want = slice(c % k, None, k)
        blocks = ambiguity._ambiguity_blocks(pairs, N, cyclic=cyclic, rows=want)
        if full.tau_axis[want].size > 1:
            s = ambiguity._whole(blocks)
            values, tau = s.values, s.tau_axis
        else:
            # cyclic lags stop short of n - 1, so that stride leaves lag 0
            # alone: one row, which the blocks hold but no surface can
            with pytest.raises(InvalidParameterError):
                ambiguity._whole(blocks)
            values, tau = blocks.values, blocks.tau_axis
        assert values.tobytes() == full.values[want].tobytes(), k
        assert tau.tobytes() == full.tau_axis[want].tobytes(), k


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("n_pairs", [1, 2])
@pytest.mark.parametrize(
    "rows", [slice(1, None, 3), slice(5, 12), slice(None, None, -1), slice(12, 2, -2)],
    ids=["stepped", "range", "reversed", "reversed-stepped"],
)
@pytest.mark.parametrize("block_rows", [None, 3])
def test_sliced_rows_are_the_whole_surface_rows(cyclic, n_pairs, rows, block_rows, monkeypatch):
    # a row slice of the lag windows streams the rows it picks, in its own
    # order, each with the bits of the same row of the whole surface
    n, N = 16, 38
    if block_rows is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", block_rows * 16 * N)
    rng = np.random.default_rng(n_pairs)
    sigs = [
        SampledSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1 / 64, -7.4 / 64)
        for _ in range(2 * n_pairs)
    ]
    pairs = list(zip(sigs[::2], sigs[1::2]))
    full = _surface(pairs, N, cyclic)
    loop = ambiguity._ambiguity_blocks(pairs, N, cyclic=cyclic, rows=rows)
    got = np.concatenate([block.copy() for _, block in loop])
    assert got.tobytes() == full.values[rows].tobytes()
    assert loop.tau_axis.tobytes() == full.tau_axis[rows].tobytes()


def _weighted_products_surface(kind, n, N, dt, t0):
    """(loop surface, reference) for one kind of surface: the reference
    weights the products, taking the unweighted lag products
    (conftest.lag_products, summed left to right for a trace) times dt
    (-1)^(m+s), in column (m+s) mod N, and one unscaled inverse FFT
    (_one_ifft, _wigner_reference); the loop carries the weight on the
    samples instead."""
    rng = np.random.default_rng(n + N)
    sigs = [
        SampledSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), dt, t0 * dt)
        for _ in range(6)
    ]
    if kind == "wigner":
        u, v = sigs[:2]
        return wigner(u, v, n_freq=N).values, _wigner_reference(u, v, N)
    cyclic = kind.startswith("cyclic")
    pairs = list(zip(sigs[::2], sigs[1::2]))[: 3 if kind.endswith("trace") else 1]
    P = lag_products(*pairs[0], cyclic)[0]
    for u, v in pairs[1:]:
        P = P + lag_products(u, v, cyclic)[0]
    return _surface(pairs, N, cyclic).values, _one_ifft(P, N, pairs[0][0])


_FOLD_CASES = [
    ("linear", 63), ("linear", 64), ("cyclic", 64), ("trace", 63), ("trace", 64),
    ("cyclic-trace", 62), ("cyclic-trace", 64), ("wigner", 63), ("wigner", 64),
]


@pytest.mark.parametrize("kind,n", _FOLD_CASES)
@pytest.mark.parametrize("t0", [-32.0, -23.68], ids=["whole", "fractional"])
@pytest.mark.parametrize("N_of_n", [lambda n: 2 * n + 6, lambda n: 4 * n], ids=["2n+6", "4n"])
def test_weight_on_the_samples_keeps_every_bit_at_a_power_of_two_dt(kind, n, t0, N_of_n):
    # scaling by a power of two commutes with rounding and a sign flip is
    # exact, so (dt (-1)^(m+s) u) conj(v) has the bits of (u conj(v)) times
    # the weight, and so does a sum of such products
    got, expect = _weighted_products_surface(kind, n, N_of_n(n), 1 / 64, t0)
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("kind,n", _FOLD_CASES)
@pytest.mark.parametrize("dt", [0.01, 1 / 3])
def test_weight_on_the_samples_drifts_by_rounding_at_other_dt(kind, n, dt):
    # any other dt rounds the product as (dt u) conj(v), not (u conj(v)) dt:
    # a last-bit difference per product, far below every check tolerance
    got, expect = _weighted_products_surface(kind, n, 2 * n + 6, dt, -23.68)
    assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect))


@pytest.mark.parametrize("kind,n,t0", [
    ("linear", 8, -7.0), ("linear", 8, -1.0), ("trace", 8, -7.0), ("trace", 8, -1.0),
    ("wigner", 4, 0.0), ("wigner", 3, 0.0),
])
def test_one_cell_runs_keep_the_bits_of_any_block_size(kind, n, t0, monkeypatch):
    # a window that starts at -dt, or ends at 0, puts one product in a
    # column run of its own (the Wigner window of n = 3 or 4 does too), and
    # a one-row block makes that one cell, which numpy rounds differently
    # under an array mask: the loop must give it the bits of a longer block,
    # and a trace, which sums its products before it places them, too
    N = 2 * n + 6
    want, expect = _weighted_products_surface(kind, n, N, 1 / 64, t0)
    assert want.tobytes() == expect.tobytes()
    monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", 16 * N)
    got, _ = _weighted_products_surface(kind, n, N, 1 / 64, t0)
    assert got.tobytes() == want.tobytes()


def _overlap_lags(pairs, n):
    """The hull of the lags k at which some pair has u[n] != 0 and
    v[n + k] != 0, counted pair by pair and lag by lag; None if none."""
    hit = [
        k
        for u, v in pairs
        for k in range(-(n - 1), n)
        if np.any((u.samples != 0)[max(0, -k) : n - max(0, k)]
                  & (v.samples != 0)[max(0, k) : n + min(0, k)])
    ]
    return (min(hit), max(hit)) if hit else None


@pytest.mark.parametrize("n,N,shift,supports,rows", [
    # disjoint supports: lag 0 is dead, lags 11 .. 29 are live
    (64, 256, -32.0, [(slice(0, 10), slice(20, 30))], slice(None)),
    # an empty support: no row is live
    (64, 256, -32.0, [(slice(0, 0), slice(None))], slice(None)),
    # one-sample supports: one live row
    (64, 256, -32.0, [(slice(5, 6), slice(40, 41))], slice(None)),
    # odd n, and N = n
    (63, 128, -31.0, [(slice(16, 48), slice(16, 48))], slice(None)),
    (64, 64, -32.0, [(slice(16, 48), slice(10, 30))], slice(None)),
    # a fractional t0/dt leaves its residual phase on the live rows alone
    (64, 256, -23.68, [(slice(16, 48), slice(16, 48))], slice(None)),
    # the hull of two pairs' lags, with all-zero rows between them
    (64, 256, -32.0, [(slice(0, 4), slice(0, 4)), (slice(60, 64), slice(0, 4))], slice(None)),
    # the reversed pick of sym-mirror and the strided pick of sym-dilate
    (64, 256, -32.0, [(slice(16, 48), slice(20, 50))], slice(None, None, -1)),
    (63, 130, -23.68, [(slice(16, 48), slice(20, 50)), (slice(0, 3), slice(30, 33))],
     slice(1, None, 3)),
], ids=["disjoint", "empty", "one-sample", "odd-n", "N-equals-n", "fractional", "hull",
        "reversed", "strided"])
@pytest.mark.parametrize("block_rows", [None, 3])
def test_dead_lag_rows_are_plus_zero(n, N, shift, supports, rows, block_rows, monkeypatch):
    # the block loop transforms only the lag rows where some pair's two
    # signals overlap; every other row is +0, bit for bit, and the live rows
    # are those of a surface that transforms every row
    if block_rows is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", block_rows * 16 * N)
    dt = 1 / 64
    rng = np.random.default_rng(n + N)
    for _ in range(8):
        pairs = []
        for su, sv in supports:
            pair = []
            for support in (su, sv):
                x = np.zeros(n, dtype=np.complex128)
                m = len(range(n)[support])
                x[support] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                pair.append(SampledSignal(x, dt, shift * dt))
            pairs.append(tuple(pair))
        P, lags = lag_products(*pairs[0], False)
        for u, v in pairs[1:]:
            P = P + lag_products(u, v, False)[0]
        expect = _one_ifft(P, N, pairs[0][0])[rows]
        loop = ambiguity._ambiguity_blocks(pairs, N, rows=rows)
        got = np.concatenate([block.copy() for _, block in loop])
        assert np.array_equal(got, expect)
        hull = _overlap_lags(pairs, n)
        live = np.zeros(lags.size, dtype=bool) if hull is None else (
            (lags >= hull[0]) & (lags <= hull[1]))
        live = live[rows]
        assert got[live].tobytes() == expect[live].tobytes()
        assert not got[~live].view(np.uint64).any()


def _overlap_times(u, v):
    """The hull of the times t at which some u[t + m] != 0 and v[t - m] != 0,
    counted time by time and m by m; None if none."""
    n = u.n
    hit = [
        t
        for t in range(n)
        for m in range(-min(t, n - 1 - t), min(t, n - 1 - t) + 1)
        if u.samples[t + m] != 0 and v.samples[t - m] != 0
    ]
    return (min(hit), max(hit)) if hit else None


@pytest.mark.parametrize("n,N,supports", [
    # disjoint supports: times 10 .. 19 are live
    (64, 128, (slice(0, 10), slice(20, 30))),
    # an empty support: no row is live
    (64, 128, (slice(0, 0), slice(None))),
    # one-sample supports: one live row, and none where the two indices
    # differ in parity by one sample (2t = 5 + 40 has no whole t)
    (64, 128, (slice(5, 6), slice(41, 42))),
    (64, 128, (slice(5, 6), slice(40, 41))),
    # odd n, and N = n
    (63, 126, (slice(16, 48), slice(10, 40))),
    (64, 64, (slice(16, 48), slice(10, 30))),
], ids=["disjoint", "empty", "one-sample", "one-sample-no-row", "odd-n", "N-equals-n"])
@pytest.mark.parametrize("block_rows", [None, 3])
def test_dead_wigner_rows_are_plus_zero(n, N, supports, block_rows, monkeypatch):
    # the Wigner distribution transforms only the times t with
    # a_u + a_v <= 2t <= b_u + b_v; every other row is +0, bit for bit, and
    # the live rows are those of a loop that transforms every row
    if block_rows is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", block_rows * 16 * N)
    dt = 1 / 64
    rng = np.random.default_rng(n + N)
    for _ in range(8):
        u, v = [], []
        for support, out in zip(supports, (u, v)):
            x = np.zeros(n, dtype=np.complex128)
            m = len(range(n)[support])
            x[support] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            out.append(SampledSignal(x, dt, -32 * dt))
        u, v = u[0], v[0]
        P, _ = _wigner_products(u, v)
        # the block loop's kernel: window (-h, 0), weight 2 dt
        expect = _one_ifft(P, N, SimpleNamespace(dt=2 * dt, t0=-((n - 1) // 2) * 2 * dt))
        got = ambiguity.wigner(u, v, n_freq=N).values
        hull = _overlap_times(u, v)
        live = np.zeros(n, dtype=bool)
        if hull is not None:
            live[hull[0] : hull[1] + 1] = True
        assert got[live].tobytes() == expect[live].tobytes()
        assert not got[~live].view(np.uint64).any()


def test_rect_pulse_transforms_only_its_live_rows(rect256, monkeypatch):
    # 128 of the rect pulse's 256 samples are nonzero, so only lags
    # -127 .. 127 overlap: 255 of its 511 lag rows go through the FFT; its
    # Wigner distribution holds products only at times 64 .. 191, 128 rows
    transformed = []
    ifft = np.fft.ifft

    def counted(a, *args, **kwargs):
        transformed.append(len(a))
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    s = cross_ambiguity(rect256)
    assert s.values.shape == (511, 1024)
    assert sum(transformed) == 255
    dead = np.abs(np.arange(511) - 255) >= 128
    assert not s.values[dead].view(np.uint64).any()
    transformed.clear()
    w = wigner(rect256)
    assert sum(transformed) == 128
    dead = (np.arange(256) < 64) | (np.arange(256) > 191)
    assert not w.values[dead].view(np.uint64).any() and w.values[~dead].any(axis=1).all()


@pytest.mark.parametrize("block_rows", [None, 3])
def test_row_runs_runs_a_loop_given_twice_once(rect256, block_rows, monkeypatch):
    # a loop given twice is filled once a run, over its live rows 128 .. 382,
    # and each run hands out the same rows twice, those of the held surface
    if block_rows is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", block_rows * 16 * 1024)
    full = cross_ambiguity(rect256, n_doppler=1024).values
    calls = []
    fill = ambiguity._SurfaceBlocks.fill

    def counted(self, start, stop):
        calls.append(start)
        return fill(self, start, stop)

    monkeypatch.setattr(ambiguity._SurfaceBlocks, "fill", counted)
    loop = ambiguity._ambiguity_blocks([(rect256, rect256)], 1024)
    got = []
    for row, (x, y) in ambiguity._row_runs(loop, loop):
        assert x is y
        got.append((row, x.copy()))
    assert calls == [row for row, _ in got]
    assert got[0][0] == 128
    assert np.concatenate([x for _, x in got]).tobytes() == full[128:383].tobytes()


# ------------------------------------------------------------ surface shape

def test_surface_axes_uniform_and_increasing(gauss256):
    s = cross_ambiguity(gauss256)
    for ax in (s.tau_axis, s.nu_axis):
        steps = np.diff(ax)
        assert np.all(steps > 0)
        assert np.allclose(steps, steps[0], rtol=1e-12)
    assert s.values.shape == (s.tau_axis.size, s.nu_axis.size)


def test_self_surface_origin_is_energy_and_max():
    for name, u in family_waveforms().items():
        s = cross_ambiguity(u)
        origin = s.value_at(0.0, 0.0)
        assert abs(origin - u.energy()) <= 1e-10, name
        assert np.max(np.abs(s.values)) <= abs(origin) + 1e-9, name


def test_surface_values_must_match_axes():
    with pytest.raises(InvalidParameterError, match="does not match axes"):
        AmbiguitySurface(np.zeros((3, 4)), np.arange(3.0), np.arange(5.0))


def test_value_at_rejects_offgrid():
    s = cross_ambiguity(gen_rect(1.0, 1 / 64))
    with pytest.raises(GridAlignmentError):
        s.value_at(0.013, 0.0)


@pytest.mark.parametrize("x", [1e308, -1e308, math.inf, math.nan])
def test_huge_coordinate_is_off_the_axes(x):
    # the step into the axis overflows: refused, with no OverflowError and
    # no RuntimeWarning (an error here) from numpy scalar arithmetic
    s = cross_ambiguity(gen_rect(1.0, 1 / 64))
    with pytest.raises(GridAlignmentError):
        s.lag_index(x)
    with pytest.raises(GridAlignmentError):
        s.doppler_index(x)


def test_doppler_count_validation():
    u = gen_rect(1.0, 1 / 64)
    with pytest.raises(InvalidParameterError):
        cross_ambiguity(u, n_doppler=u.n - 2)
    with pytest.raises(InvalidParameterError):
        cross_ambiguity(u, n_doppler=u.n + 1)
    odd = SampledSignal(np.ones(7, dtype=np.complex128), 0.5, 0.0)
    with pytest.raises(InvalidParameterError, match="even sample count"):
        cross_ambiguity(odd, n_doppler=8, cyclic=True)
    # one sample gives a single lag row, which has no lag step
    one = SampledSignal(np.array([1.0 + 0j]), 0.5, 0.0)
    for build in (cross_ambiguity, cross_ambiguity_oracle, wigner):
        with pytest.raises(InvalidParameterError):
            build(one)


def test_cross_ambiguity_grid_mismatch():
    with pytest.raises(GridMismatchError):
        cross_ambiguity(gen_rect(1.0, 1 / 64), gen_rect(1.0, 1 / 32))


# ------------------------------------------------------------- closed forms

def test_rect_zero_doppler_cut_is_triangle(rect256):
    s = cross_ambiguity(rect256)
    cut = np.abs(s.values[:, s.doppler_index(0.0)])
    tri = np.clip(1.0 - np.abs(s.tau_axis), 0.0, None)
    assert np.max(np.abs(cut - tri)) <= 1e-6


def test_rect_zero_delay_cut_is_sinc():
    # continuum sinc needs a fine grid; evaluate the zero-lag row directly
    dt = 1 / 4096
    u = gen_rect(1.0, dt)
    nu = np.linspace(-3.0, 3.0, 401)
    row = dt * (np.abs(u.samples) ** 2) @ np.exp(
        1j * 2 * np.pi * np.outer(u.times, nu)
    )
    ref = np.abs(np.sinc(nu))
    assert np.max(np.abs(np.abs(row) - ref)) <= 1e-6


def test_gaussian_self_af_closed_form(gauss256):
    s = cross_ambiguity(gauss256, n_doppler=4 * gauss256.n)
    T, N = np.meshgrid(s.tau_axis, s.nu_axis, indexing="ij")
    closed = np.exp(-np.pi * (T ** 2 + N ** 2) / 2) * np.exp(-1j * np.pi * T * N)
    assert np.max(np.abs(s.values - closed)) <= 1e-6
    assert np.max(np.abs(np.abs(s.values) - np.abs(closed))) <= 1e-6


def test_orthogonal_subcarriers_vanish_at_origin(subcarriers2):
    s = cross_ambiguity(subcarriers2[0], subcarriers2[1])
    assert abs(s.value_at(0.0, 0.0)) <= 1e-10


# ------------------------------------------------------------------- wigner

def test_wigner_gaussian_closed_form(gauss256):
    w = wigner(gauss256, n_freq=4 * gauss256.n)
    T, F = np.meshgrid(w.tau_axis, w.nu_axis, indexing="ij")
    closed = 2.0 * np.exp(-2 * np.pi * (T ** 2 + F ** 2))
    assert np.max(np.abs(w.values - closed)) <= 1e-5


def test_wigner_time_marginal(gauss256):
    # the frequency quadrature of each time row recovers |u|^2
    w = wigner(gauss256)
    marginal = np.sum(w.values, axis=1) * (w.nu_axis[1] - w.nu_axis[0])
    assert np.max(np.abs(marginal - np.abs(gauss256.samples) ** 2)) <= 1e-6


def test_wigner_shift_covariance(rect256):
    shifted = heisenberg_shift(rect256, HeisenbergPoint(8 * rect256.dt, 0.0))
    w0 = wigner(rect256)
    w1 = wigner(shifted)
    assert np.array_equal(w1.values[:-8, :], w0.values[8:, :])


def test_af_wigner_duality(gauss256):
    w = wigner(gauss256)
    s = cross_ambiguity(gauss256, n_doppler=2 * gauss256.n)
    dual = ambiguity_from_wigner(w, s.tau_axis, s.nu_axis)
    assert frob_rel(dual.values, s.values) <= 1e-6


def _wigner_products(u, v):
    # row t holds u[t+m] conj(v[t-m]) for |m| <= min(t, n-1-t) at index
    # q = h - m of n, h = (n-1)//2, and +0 past that diamond; one row at a time
    n, us, vs = u.n, u.samples, v.samples
    h = (n - 1) // 2
    P = np.zeros((n, n), dtype=np.complex128)
    for t in range(n):
        m_max = min(t, n - 1 - t)
        m = np.arange(-m_max, m_max + 1)
        P[t, h - m] = us[t + m] * np.conj(vs[t - m])
    return P, h


def _wigner_reference(u, v, n_freq):
    # the block loop's formula over every row at once: product q times
    # 2 dt (-1)^(q-h) in column (q - h) mod n_freq, one unscaled inverse FFT.
    # The rows before the first and after the last that hold a nonzero
    # product are +0, as the block loop writes them, where the FFT of their
    # signed zeros can leave -0
    P, h = _wigner_products(u, v)
    q = np.arange(P.shape[1])
    w = np.where((q - h) % 2, -2.0 * u.dt, 2.0 * u.dt)
    X = np.zeros((u.n, n_freq), dtype=np.complex128)
    X.real[:, (q - h) % n_freq] = P.real * w
    X.imag[:, (q - h) % n_freq] = P.imag * w
    X = np.fft.ifft(X, axis=1, norm="forward")
    held = np.flatnonzero(np.any(P != 0, axis=1))
    dead = np.ones(u.n, dtype=bool)
    if held.size:
        dead[held[0] : held[-1] + 1] = False
    X[dead] = 0
    return X


def _wigner_fftshift(u, v, n_freq):
    # the lag array, then a separate FFT, fftshift and scale, as first written
    n, us, vs = u.n, u.samples, v.samples
    R = np.zeros((n, n_freq), dtype=np.complex128)
    for ni in range(n):
        m_max = min(ni, n - 1 - ni)
        m = np.arange(-m_max, m_max + 1)
        R[ni, m % n_freq] = us[ni + m] * np.conj(vs[ni - m])
    return 2.0 * u.dt * np.fft.fftshift(np.fft.fft(R, axis=1), axes=1)


@pytest.mark.parametrize("n,n_freq", [(64, None), (63, 130), (2, 2)])
def test_wigner_matches_fftshift_expression(n, n_freq, monkeypatch):
    rng = np.random.default_rng(n)
    us, vs = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    # signed zeros at both ends make any stray product past the diamond
    # visible in the bits
    us[:2], vs[-2:] = -0.0, -0.0
    u, v = SampledSignal(us, 1 / 64, -0.5), SampledSignal(vs, 1 / 64, -0.5)
    N = n_freq or 2 * n
    ref = _wigner_reference(u, v, N)
    # the distribution goes through the surface block loop, so the block
    # size must not change a bit of it
    for rows in (None, 1, 7):
        if rows is not None:
            monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", rows * 16 * N)
        w = wigner(u, v, n_freq=n_freq)
        assert w.values.tobytes() == ref.tobytes(), rows
    first = _wigner_fftshift(u, v, N)
    assert np.max(np.abs(w.values - first)) <= 1e-13 * np.max(np.abs(first))
    assert np.array_equal(w.tau_axis, u.times)
    assert np.array_equal(w.nu_axis, np.fft.fftshift(np.fft.fftfreq(N, 2 * u.dt)))


def test_wigner_peak_memory():
    # the distribution, the one block buffer the loop streams through and
    # one block of its lag products are the only arrays of size alive at once
    n = 1024
    rng = np.random.default_rng(4)
    u = SampledSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1 / 64, -8.0)
    w, peak = traced_peak(wigner, u)
    assert w.values.shape == (n, 2 * n)
    assert peak <= w.values.nbytes + 2 * _BLOCK_BYTES + 2**20


# ------------------------------------------------- correlation matrix entries

def test_correlation_matrix_orthogonality_at_origin(subcarriers2):
    s01 = cross_ambiguity(subcarriers2[0], subcarriers2[1])
    assert abs(s01.value_at(0.0, 0.0)) <= 1e-10


def test_correlation_matrix_cross_symmetry(subcarriers2):
    # chi_ji(-tau,-nu) = conj(chi_ij(tau,nu)) e^{-i 2 pi nu tau}; the
    # unpaired leftmost Doppler bin is excluded
    rng = np.random.default_rng(5)
    waves = [
        random_mixture(mixture_basis(subcarriers2[0]), rng),
        random_mixture(mixture_basis(subcarriers2[1]), rng),
    ]
    s01 = cross_ambiguity(waves[0], waves[1])
    s10 = cross_ambiguity(waves[1], waves[0])
    T, N = np.meshgrid(s01.tau_axis, s01.nu_axis, indexing="ij")
    target = np.conj(s10.values) * np.exp(-1j * 2 * np.pi * N * T)
    flipped = np.full_like(s01.values, np.nan)
    flipped[:, 1:] = s01.values[::-1, 1:][:, ::-1]
    assert np.max(np.abs(flipped[:, 1:] - target[:, 1:])) <= 1e-9


# ----------------------------------------------------------- steering / MIMO

def test_steering_config_validation(subcarriers2):
    waves = [*subcarriers2, subcarriers2[0]]
    with pytest.raises(InvalidParameterError, match="cannot resolve"):
        # the K x K grid needs K > gamma (M-1)
        mimo_slice_spatial(waves, 2.0, 0.0, 0.0, 4)
    assert mimo_slice_spatial(waves, 2.0, 0.0, 0.0, 5).shape == (5, 5)
    for gamma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            mimo_beams(waves, gamma, 0.0, 0.0)


@pytest.mark.parametrize(
    "K", [math.nan, 8.5, 8.0, 2**32], ids=["K-nan", "K-8.5", "K-float", "K-past-u32"]
)
def test_steering_config_rejects_non_integer_counts(subcarriers2, K):
    # K is refused by the one call that samples the spatial grid
    with pytest.raises(InvalidParameterError):
        mimo_slice_spatial(subcarriers2, 1.0, 0.0, 0.0, K)


@pytest.mark.parametrize("M, gamma", [(1, 1e308), (2, 1e308)])
def test_steering_config_rejects_overflowing_phases(gauss256, M, gamma):
    # past a finite 2 pi gamma max(M-1, 1) the steering phases are nan, and
    # at M = 1 nothing else bounds gamma
    with pytest.raises(InvalidParameterError, match="overflow"):
        mimo_beams([gauss256] * M, gamma, 0.3, 0.3)


def test_an_array_needs_a_waveform():
    with pytest.raises(InvalidParameterError, match="at least one waveform"):
        mimo_beams([], 1.0, 0.0, 0.0)
    with pytest.raises(InvalidParameterError, match="at least one waveform"):
        mimo_slice_spatial([], 1.0, 0.0, 0.0, 4)
    with pytest.raises(InvalidParameterError, match="at least one waveform"):
        spatial_integral([], 1.0)
    with pytest.raises(InvalidParameterError, match="at least one waveform"):
        mimo_energy_quadrature([], 1.0)
    with pytest.raises(InvalidParameterError, match="at least one waveform"):
        mimo_inner_product([], [], 1.0, 0.0, 0.0)


def test_mimo_slice_orthonormal_origin(subcarriers2):
    s = mimo_ambiguity(subcarriers2, 1.0, 0.0, 0.0)
    assert abs(s.value_at(0.0, 0.0) - 2.0) <= 1e-9


def test_mimo_slice_m1_reduces_to_self_af(gauss256):
    s = mimo_ambiguity([gauss256], 1.0, 0.37, 0.91)
    assert np.array_equal(s.values, cross_ambiguity(gauss256).values)


def test_mimo_slice_identical_waveforms_factorize(gauss256):
    M, gamma, fs, fsp = 3, 1.0, 0.3, 0.45
    s = mimo_ambiguity([gauss256] * M, gamma, fs, fsp)
    d_fs = np.sum(np.exp(1j * 2 * np.pi * gamma * fs * np.arange(M)))
    d_fsp = np.sum(np.exp(1j * 2 * np.pi * gamma * fsp * np.arange(M)))
    base = cross_ambiguity(gauss256)
    assert frob_rel(s.values, base.values * d_fs * np.conj(d_fsp)) <= 1e-10


def test_mimo_slice_rejects_out_of_range_fs(subcarriers2):
    gamma = 1.0
    with pytest.raises(InvalidParameterError):
        mimo_ambiguity(subcarriers2, gamma, 1.5, 0.0)
    with pytest.raises(InvalidParameterError):
        mimo_ambiguity(subcarriers2, gamma, 0.0, -0.2)


@pytest.fixture(scope="module")
def mixed4():
    """M = 4 non-orthogonal unit-norm mixtures and their M^2 pair surfaces,
    the independent reference for the beam and direct-sum routes."""
    rng = np.random.default_rng(11)
    basis = mixture_basis(gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0))
    ws = [random_mixture(basis, rng) for _ in range(4)]
    return ws, pair_surfaces(ws, n_doppler=512)


def test_mimo_slice_is_cross_ambiguity_of_beams(mixed4):
    # chi is linear in u and conjugate-linear in v, so the slice
    # sum_{m,p} a_m conj(b_p) chi(u_m, u_p) equals chi(sum a_m u_m, sum b_p u_p)
    ws, entries = mixed4
    gamma = 1.0
    fs, fsp = 0.137, 0.613  # off the fs grid, fs != fs'
    a = np.exp(1j * 2 * np.pi * gamma * fs * np.arange(4))
    b = np.exp(1j * 2 * np.pi * gamma * fsp * np.arange(4))
    slice_ = mimo_ambiguity(ws, gamma, fs, fsp, n_doppler=512).values
    expect = np.einsum("m,p,mpij->ij", a, np.conj(b), entries)
    assert frob_rel(slice_, expect) <= 1e-12
    # dropping the conjugate on the second steering vector breaks it
    wrong = np.einsum("m,p,mpij->ij", a, b, entries)
    assert frob_rel(slice_, wrong) >= 0.1


def test_spatial_grid_matches_tensor_entries(mixed4):
    ws, entries = mixed4
    gamma = 1.0
    Z = np.exp(1j * 2 * np.pi * gamma * np.outer(np.arange(16) / 16, np.arange(4)))
    ref = cross_ambiguity(ws[0], n_doppler=512)  # for its axes
    dt = ws[0].dt
    # points where |chi| is not rounding noise, plus both edge lags
    for k, l in [(0, 0), (5, 3), (-7, -4), (16, -8), (ws[0].n - 1, 255), (-(ws[0].n - 1), -256)]:
        tau, nu = k * dt, ref.nu_axis[256 + l]
        X = entries[:, :, ref.lag_index(tau), ref.doppler_index(nu)]
        V = mimo_slice_spatial(ws, gamma, tau, nu, 16, n_doppler=512)
        assert frob_rel(V, Z @ X @ Z.conj().T) <= 1e-12, (k, l)


def test_spatial_integral_matches_tensor_trace(mixed4):
    ws, entries = mixed4
    out = spatial_integral(ws, 1.0, n_doppler=512)
    assert frob_rel(out.values, np.einsum("mmij->ij", entries)) <= 1e-12


def test_steering_linearity(subcarriers2):
    c = 0.6 - 1.1j
    scaled = [
        subcarriers2[0].replace_samples(c * subcarriers2[0].samples),
        subcarriers2[1],
    ]
    gamma = 1.0
    got = mimo_ambiguity(scaled, gamma, 0.3, 0.7)
    w = np.array([[c * np.conj(c), c], [np.conj(c), 1.0]])
    a = _steering_phases(gamma, 0.3, 2)
    b = _steering_phases(gamma, 0.7, 2)
    entries = pair_surfaces(subcarriers2)
    predicted = np.einsum("m,p,mp,mpij->ij", a, np.conj(b), w, entries)
    assert frob_rel(got.values, predicted) <= 1e-10


def test_spatial_grid_diagonal_is_m(subcarriers2):
    V = mimo_slice_spatial(subcarriers2, 1.0, 0.0, 0.0, 16)
    assert V.shape == (16, 16)
    assert np.max(np.abs(np.diag(V) - 2.0)) <= 1e-9


def test_spatial_grid_m1_constant(gauss256):
    tau, nu = 4 * gauss256.dt, 0.0
    V = mimo_slice_spatial([gauss256], 1.0, tau, nu, 8)
    expect = cross_ambiguity(gauss256).value_at(tau, nu)
    assert np.max(np.abs(V - expect)) <= 1e-12


def test_spatial_grid_conjugation_reverses(subcarriers2):
    rng = np.random.default_rng(11)
    waves = [
        random_mixture(mixture_basis(subcarriers2[0]), rng),
        random_mixture(mixture_basis(subcarriers2[1]), rng),
    ]
    gamma = 1.0
    tau, nu = 4 * waves[0].dt, 0.25
    V = mimo_slice_spatial(waves, gamma, tau, nu, 8)
    conj_waves = [w.replace_samples(np.conj(w.samples)) for w in waves]
    Vc = mimo_slice_spatial(conj_waves, gamma, tau, -nu, 8)
    idx = (-np.arange(8)) % 8
    assert np.max(np.abs(Vc - np.conj(V[np.ix_(idx, idx)]))) <= 1e-9


def test_spatial_integral_m1_equals_self_af(gauss256):
    # one self pair is gathered with no scratch block and no add, so the
    # trace of one waveform is its self surface bit for bit, signed zeros
    # included (the Gaussian's surface has -0.0 cells at 1028 bins, and
    # every sample of it is nonzero, so every row is live and transformed;
    # at 1024 it has none)
    gamma = 1.0
    out = spatial_integral([gauss256], gamma)
    assert out.values.tobytes() == cross_ambiguity(gauss256).values.tobytes()
    expect = cross_ambiguity(gauss256, n_doppler=1028).values
    bits = expect.view(np.float64)
    assert np.any((bits == 0) & np.signbit(bits))
    out = spatial_integral([gauss256], gamma, n_doppler=1028)
    assert out.values.tobytes() == expect.tobytes()


def test_spatial_integral_orthonormal_origin(subcarriers2):
    out = spatial_integral(subcarriers2, 1.0)
    assert abs(out.value_at(0.0, 0.0) - 2.0) <= 1e-9


def test_spatial_integral_requires_integer_gamma(subcarriers2):
    with pytest.raises(InvalidParameterError):
        spatial_integral(subcarriers2, 0.5)


@pytest.mark.parametrize("m", [1, 4])
def test_spatial_integral_bytes_match_out_of_place_sum(m):
    # the trace is one Doppler transform of P_0 + P_1 + ..., the self lag
    # products summed left to right from P_0 (not from 0.0, whose first add
    # would turn -0.0 cells into +0.0), by the block loop's formula; 1028
    # bins leave -0.0 cells in the trace of these Gaussians, which 1024
    # would not, and their samples are all nonzero, so every row is live
    ws = [gen_gaussian(s, DT_G, 2.0) for s in (CANONICAL_SIGMA, 0.3, 0.4, 0.25)][:m]
    n_doppler = 1028
    P = lag_products(ws[0], ws[0], False)[0]
    for w in ws[1:]:
        P = P + lag_products(w, w, False)[0]
    expect = _one_ifft(P, n_doppler, ws[0])
    out = spatial_integral(ws, 1.0, n_doppler=n_doppler)
    bits = out.values.view(np.float64)
    assert np.any((bits == 0) & np.signbit(bits))
    assert out.values.tobytes() == expect.tobytes()


def test_spatial_integral_bytes_match_across_block_sizes(monkeypatch):
    # the lag products are summed per cell before the one FFT of a block,
    # and pocketfft transforms each row on its own, so the block size does
    # not change a bit of the trace
    ws = gen_subcarrier_set(4, 1.0, DT)
    gamma = 1.0
    default = spatial_integral(ws, gamma, n_doppler=512).values
    monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", 5 * 16 * 512)
    assert spatial_integral(ws, gamma, n_doppler=512).values.tobytes() == default.tobytes()


@pytest.mark.parametrize("M", [4, 16])
def test_spatial_integral_peak_memory(M):
    # the trace, the one block buffer the loop streams through, and a total
    # and a scratch block of lag products, in which the self pairs' products
    # are summed whatever M is; the bound holds those two blocks of products
    # and 1 MiB, so a scratch that grew with M would fail it at M = 16
    ws = gen_subcarrier_set(M, 1.0, DT)
    n, n_doppler = ws[0].n, 1024
    x_bytes = (2 * n - 1) * n_doppler * 16
    block_bytes = min(2 * n - 1, _BLOCK_BYTES // (16 * n_doppler)) * n * 16
    out, peak = traced_peak(spatial_integral, ws, 1.0, n_doppler=n_doppler)
    assert out.values.nbytes == x_bytes
    assert peak <= x_bytes + _BLOCK_BYTES + 2 * block_bytes + 2**20


@pytest.fixture(scope="module")
def mixed3():
    waves = gen_subcarrier_set(3, 1.0, DT)
    rng = np.random.default_rng(2)
    return [random_mixture(mixture_basis(w), rng) for w in waves]


def _riemann_spatial_integral(ws, gamma, K=16):
    # The K-point mean over fs of the public co-steered slice: it carries
    # the M^2 - M cross terms, which cancel only through the sum over fs.
    # For an integer gamma and K > gamma (M-1) the steering phases are
    # orthonormal on this grid, so the mean is the integral over [0, 1).
    total = 0.0
    for fs in np.arange(K) / K:
        total = total + mimo_ambiguity(ws, gamma, fs, fs, n_doppler=512).values
    return total / K


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_spatial_integral_is_riemann_sum_of_slices(mixed3, gamma):
    out = spatial_integral(mixed3, gamma, n_doppler=512)
    assert frob_rel(_riemann_spatial_integral(mixed3, gamma), out.values) <= 1e-12


def test_spatial_riemann_sum_misses_trace_at_half_wavelength(mixed3):
    trace = spatial_integral(mixed3, 1.0, n_doppler=512)
    gamma = 0.5
    assert frob_rel(_riemann_spatial_integral(mixed3, gamma), trace.values) >= 0.1
    with pytest.raises(InvalidParameterError):
        spatial_integral(mixed3, gamma, n_doppler=512)


@pytest.fixture(scope="module")
def mixed2(subcarriers2):
    rng = np.random.default_rng(4)
    return [random_mixture(mixture_basis(w), rng) for w in subcarriers2]


def _slice_energy_mean(ws, gamma, K=8):
    # The K^2 mean of beam-slice energies on the K-point fs grid: every
    # slice carries all M^2 pair surfaces, and their cross terms cancel only
    # through the sums over fs, exactly for an integer gamma and K > gamma (M-1).
    acc = 0.0
    for fa in np.arange(K) / K:
        for fb in np.arange(K) / K:
            acc += mimo_ambiguity(ws, gamma, fa, fb, n_doppler=512).energy()
    return acc / K ** 2


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_mimo_energy_quadrature_matches_slice_by_slice(mixed2, gamma):
    total = mimo_energy_quadrature(mixed2, gamma, n_doppler=512)
    acc = _slice_energy_mean(mixed2, gamma)
    assert abs(total - acc) <= 1e-12 * abs(acc)


def test_slice_energy_mean_misses_quadrature_at_half_wavelength(mixed2):
    total = mimo_energy_quadrature(mixed2, 1.0, n_doppler=512)
    gamma = 0.5
    assert abs(_slice_energy_mean(mixed2, gamma) - total) >= 0.1 * total
    with pytest.raises(InvalidParameterError):
        mimo_energy_quadrature(mixed2, gamma, n_doppler=512)


def test_mimo_energy_quadrature_peak_memory():
    # The pair surfaces are streamed one at a time and squared block by
    # block: one block and its lag products are alive at once, under one
    # surface, never a whole surface or all M^2 of them.
    rng = np.random.default_rng(9)
    basis = mixture_basis(gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0))
    ws = [random_mixture(basis, rng) for _ in range(4)]
    n, n_doppler = ws[0].n, 1024
    x_bytes = (2 * n - 1) * n_doppler * 16
    total, peak = traced_peak(mimo_energy_quadrature, ws, 1.0, n_doppler=n_doppler)
    assert total > 0
    assert peak <= x_bytes


# --------------------------------------------- randomized surface invariants

@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_randomized_self_max_and_oracle(seed):
    rng = np.random.default_rng(seed)
    u = random_mixture(mixture_basis(gen_gaussian(CANONICAL_SIGMA, DT_G, 2.0)), rng)
    n_d = int(rng.choice([u.n, 2 * u.n, 4 * u.n]))
    s = cross_ambiguity(u, n_doppler=n_d)
    origin = abs(s.value_at(0.0, 0.0))
    assert np.max(np.abs(s.values)) <= origin + 1e-9
    o = cross_ambiguity_oracle(u, n_doppler=n_d)
    assert frob_rel(s.values, o.values) <= 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_randomized_cross_symmetry(seed):
    rng = np.random.default_rng(seed)
    base = mixture_basis(gen_rect(1.0, DT_G))
    u, v = random_mixture(base, rng), random_mixture(base, rng)
    suv = cross_ambiguity(u, v)
    svu = cross_ambiguity(v, u)
    T, N = np.meshgrid(suv.tau_axis, suv.nu_axis, indexing="ij")
    target = np.conj(svu.values) * np.exp(-1j * 2 * np.pi * N * T)
    flipped = suv.values[::-1, 1:][:, ::-1]
    assert np.max(np.abs(flipped - target[:, 1:])) <= 1e-9
