"""SL(2,R) covariance of ambiguity surfaces, checked along two routes.

The generators

    J = [[0, 1], [-1, 0]]   (quarter-turn of the delay-Doppler plane)
    t(a) = [[1, 0], [a, 1]] (shear)
    m(b) = [[b, 0], [0, 1/b]] (dilation)

and the point reflection -I = J^2 act on an ambiguity surface by
coordinate remap, and on the underlying signals by Fourier transform,
chirp multiplication, time dilation and swapping the pair.  Each verify
routine computes one identity along both routes (surface remap vs
transformed signals) and reports the relative Frobenius distance.  A u or
v of zero energy, whose two routes would both be zero, or of energy past
the float range raises InvalidParameterError before any signal is
transformed or surface built.  The MIMO lift, :func:`verify_mimo_symmetry`,
is handed one of the four scalar verifiers and runs it on the beamformed
signal pair, whose cross-ambiguity is the spatial slice.

Grid notes baked into the checks:

* The factor exp(+-i 2 pi tau nu) of the rotation and mirror identities
  is read from the root-of-unity table ``_unit_roots`` by integer index.
* The rotation identity needs the frequency grid to coincide with the
  time grid (n dt^2 = 1) and cyclic lag products, under which it is exact.
  With the forward Fourier transform the rotation appears as the inverse
  quarter-turn, which on that grid is the index relabel
  out[a, l] = s[(n - l) mod n, a] on every cell: cyclic lag products are
  n-periodic, so lag row n is lag row 0.
* The mirror check relabels the surface by reversing both index axes, a
  pure permutation on symmetric axes, and is held to 1e-9.  Doppler bin j
  pairs with bin (N - j) mod N; bin 0 with itself one period on, which
  takes the window factor below.
* Shear rolls the Doppler axis per lag row.  The discrete surface is
  periodic in Doppler up to the factor exp(i 2 pi t0/dt) per period, which
  is 1 when the window start t0 is a whole number of samples and is
  otherwise applied to each wrapped run; an integer roll count makes each
  row two exact slice copies, with a bin-wise phase rotation as the
  off-grid fallback.
* Dilations by b = k and b = 1/k, k whole, read one side from a parent
  surface with a k times finer Doppler step, where (k tau, nu/k) lands on
  exact grid points; for 1/k the parent is the dilated pair's.  Any other
  b would fall between grid points and is refused.

Every relative distance takes its norms as sums of squares along each
row, with numpy's own summation loop, not a BLAS dot, whose bits change
with the BLAS thread count, and totals the rows once by math.fsum, so no
report depends on the block size.

Memory: the mirror, shear and dilation checks hold no surface.  Each
streams its two routes, each from its own lag products, side by side
through the block loop and compares them a run of rows at a time, taking
the difference in place over route (b)'s cells: a few blocks, under 3
MiB on the default grid and the same at any size, over the hull of the two
routes' live lag rows only (_row_runs): every row outside is +0 on both.
The dilation parent, with k times the Doppler bins, and route (a) are
built only on the lags route (b) reads, every k-th.  The rotation check
streams route (b) too, against one held 1 MiB cyclic surface, chi(u, v),
because its relabel is a transpose, and reads every row.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import replace
from typing import Any

import numpy as np

from .ambiguity import (
    AmbiguitySurface,
    _ambiguity_blocks,
    _check_doppler_count,
    _fsum,
    _row_runs,
    _squared_rows,
    _unit_roots,
    _window_shift,
    cross_ambiguity,
    mimo_beams,
)
from .errors import GridAlignmentError, GridMismatchError, InvalidParameterError
from .properties import _TINY, CheckReport
from .signals import (
    SampledSignal,
    _require_energy,
    _require_positive,
    _snap,
    chirp_multiply,
    dilate,
    fourier,
)

__all__ = [
    "verify_fourier_rotation",
    "verify_mirror",
    "verify_lfm_shear",
    "verify_dilation",
    "verify_mimo_symmetry",
]

_SNAP = 1e-9


def _tau_nu_phase(values: np.ndarray, lags: np.ndarray, sign: int, conj: bool = False) -> None:
    """Multiply values (conjugated first if conj) in place by
    exp(sign i 2 pi tau nu), on a grid :func:`cross_ambiguity` built.

    Row i of values is lag lags[i], so the phase at Doppler bin j of N is
    roots[sign lags[i] (j - N/2) mod N].  For a power-of-two N the mod is a
    mask of the low bits, which is the same index for negative products too
    (two's complement) and cheaper.
    """
    N = values.shape[1]
    idx = np.multiply.outer(sign * lags, np.arange(N) - N // 2)
    if N & (N - 1):
        np.remainder(idx, N, out=idx)
    else:
        np.bitwise_and(idx, N - 1, out=idx)
    if conj:
        np.conjugate(values, out=values)
    values *= _unit_roots(N)[idx]


def _dual_path_report(
    name: str, pairs: Iterable[tuple[np.ndarray, np.ndarray]], tol: float, info: dict
) -> CheckReport:
    """The relative distance of route (a) from route (b), from (a, b) blocks
    of the same cells.  b, whose last axis must be contiguous, is
    overwritten with a - b once its squares are read.  No pair at all (an
    empty hull) reads as all-zero blocks do, and a norm past the float
    range gives nan, which fails."""
    den, gap = [], []
    for a, b in pairs:
        den.append(_squared_rows(b.copy()))
        gap.append(_squared_rows(np.subtract(a, b, out=b)))
    den_norm, gap_norm = (
        math.sqrt(_fsum(np.concatenate([np.zeros(0), *rows]))) for rows in (den, gap)
    )
    finite = math.isfinite(gap_norm) and math.isfinite(den_norm)
    rel = gap_norm / max(den_norm, _TINY) if finite else math.nan
    return CheckReport(name, rel, 0.0, rel, rel, tol, info)


def _partner(u: SampledSignal, v: SampledSignal | None) -> SampledSignal:
    """v, or u if None, once the pair is on one grid and each energy is
    finite and nonzero: at zero both routes are zero and their distance
    0/0.  Each check calls it before it transforms a signal."""
    v = u if v is None else v
    u.require_compatible(v)
    _require_energy([u, v], nonzero=True)
    return v


def verify_fourier_rotation(
    u: SampledSignal,
    v: SampledSignal | None = None,
    tol: float = 1e-5,
) -> CheckReport:
    """Quarter-turn identity: the surface of (u, v) pulled back along the
    inverse rotation equals the surface of their Fourier transforms times
    exp(i 2 pi nu tau).

    Needs n dt^2 = 1 (frequency grid equal to time grid) and uses cyclic
    lag products, under which both routes agree to rounding.  There lag
    index and Doppler bin share the step dt, so the pullback along J^{-1},
    s(-nu, tau), is the relabel out[a, l] = s[(n - l) mod n, a] on every
    cell.  Route (b), the Fourier pair's surface, streams a run of rows at
    a time against chi(u, v), which is held, because the relabel is a
    transpose.
    """
    v = _partner(u, v)
    n = u.n
    if abs(n * u.dt * u.dt - 1.0) > 1e-9:
        raise GridMismatchError(
            f"rotation check needs n*dt^2 = 1 so the Fourier grid matches; "
            f"got n={n}, dt={u.dt}"
        )
    pair = fourier(u), fourier(v)
    s = cross_ambiguity(u, v, n_doppler=n, cyclic=True)
    # set up once s, whose own loop is gone by then, is built
    path_b = _ambiguity_blocks([pair], n, cyclic=True)
    col0, cols = _rotation_relabel(s)
    lags = np.arange(n) - n // 2

    def pairs() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start, (b,) in _row_runs(path_b):
            rows = slice(start, start + len(b))
            _tau_nu_phase(b, lags[rows], 1)
            yield col0[rows], b[:, :1]
            yield cols[rows], b[:, 1:]

    return _dual_path_report("sym-J", pairs(), tol, {})


def _rotation_relabel(s: AmbiguitySurface) -> tuple[np.ndarray, np.ndarray]:
    """s(-nu, tau) on a cyclic n dt^2 = 1 grid, out[a, l] = s[(n - l) mod n, a],
    as views of its Doppler bin 0 and of bins 1 .. n-1.  Bin 0 reads lag row
    n, which is lag row 0: cyclic lag products are n-periodic."""
    return s.values[:1].T, s.values[:0:-1].T


def verify_mirror(
    u: SampledSignal,
    v: SampledSignal | None = None,
    n_doppler: int | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Point reflection: chi(u,v)(-tau,-nu) = conj(chi(v,u)(tau,nu)) e^{-i2pi nu tau}.

    The left side is chi(u,v) relabelled by reversing both index axes, a
    pure permutation on the symmetric axes; the right side is chi(v,u),
    built by its own FFT.  The -Nyquist Doppler bin reflects onto +Nyquist,
    one period past bin 0, where the surface takes the factor
    exp(i 2 pi t0/dt).  chi(u,v) streams in descending lag order beside
    chi(v,u), so each run of rows meets the reflected lags.
    """
    v = _partner(u, v)
    svu = _ambiguity_blocks([(v, u)], n_doppler)
    suv = _ambiguity_blocks([(u, v)], n_doppler, rows=slice(None, None, -1))
    centre = svu.tau_axis.size // 2
    # the whole part of t0/dt gives whole turns
    period = np.exp(1j * 2.0 * math.pi * _window_shift(u)[1])

    def pairs() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start, (target, reflected) in _row_runs(svu, suv):
            _tau_nu_phase(target, np.arange(start, start + len(target)) - centre, -1, conj=True)
            # target bin j pairs with the reflected rows' bin (N - j) mod N
            yield reflected[:, :1] * period, target[:, :1]
            yield reflected[:, :0:-1], target[:, 1:]

    return _dual_path_report("sym-mirror", pairs(), tol, {})


def _shear_resample(
    tau_axis: np.ndarray, nu_axis: np.ndarray, u: SampledSignal, rate: float
) -> tuple[Callable[[int, np.ndarray], np.ndarray], bool]:
    """(resample, aligned) for a surface of signals on u's grid with the
    given axes: resample(start, rows), rows start, start + 1, ... of it,
    gives their values at (tau, nu - rate*tau) times exp(-i pi rate tau^2)
    as a new array; aligned, decided on all rows, says whether every row
    rolls by whole bins.

    The discrete surface is periodic in Doppler up to the window phase:
    chi(tau, nu + 1/dt) = exp(i 2 pi t0/dt) chi(tau, nu), exactly periodic
    when the window start t0 is a whole number of samples.  Integer per-row
    shifts roll cyclically, a cell the roll wraps w times taking the factor
    exp(i 2 pi w t0/dt) (skipped when t0/dt is whole, where it is 1);
    fractional shifts are still exact, because once the window-start phase
    splits off, each row is a trigonometric polynomial whose coefficients
    occupy Fourier bins 0 .. n-1, so an off-grid translate is a bin-wise
    phase rotation.  Every step works along a row.
    """
    n_d = nu_axis.size
    # Doppler bins per lag step, rate dt / d_nu with d_nu = 1 / (n_d dt):
    # from the exact grid, not the axis step, a difference of two axis
    # values whose rounding long rolls would carry past the alignment snap
    shift_per_lag = rate * n_d * u.dt * u.dt
    lags = np.round(tau_axis / u.dt).astype(np.int64)
    # every row's shift must be whole, not just the per-lag step: a step
    # within the snap of an integer can still drift by n times the snap
    shifts = lags * shift_per_lag
    aligned = bool(np.all(np.abs(shifts - np.round(shifts)) <= _SNAP))
    # a wrap takes exp(i 2 pi f), f the fraction of t0/dt (the whole part
    # gives whole turns)
    turn = 1j * 2.0 * math.pi * _window_shift(u)[1] if aligned else 0.0

    def resample(start: int, values: np.ndarray) -> np.ndarray:
        rows = slice(start, start + len(values))
        tau = tau_axis[rows]
        if aligned:
            # np.roll of row i by its whole shift d = q n_d + r, 0 <= r < n_d,
            # as two slice copies.  Cell j reads bin j - d, which the roll
            # wraps w = floor((j - d) / n_d) times: -q on the run [r:], -q - 1
            # on [:r]
            out = np.empty_like(values)
            for row, dst, d in zip(values, out, np.round(shifts[rows]).astype(np.int64).tolist()):
                q, r = divmod(d, n_d)
                dst[r:] = row[: n_d - r]
                dst[:r] = row[n_d - r :]
                if turn:
                    dst[r:] *= np.exp(turn * -q)
                    dst[:r] *= np.exp(turn * (-q - 1))
        else:
            # the rows and at most two arrays of their size are alive
            phase_in = np.exp(-1j * 2.0 * math.pi * u.t0 * nu_axis)[None, :]
            out = np.fft.fft(values * phase_in, axis=1)
            phase = -1j * 2.0 * math.pi * shifts[rows, None] * np.arange(n_d)[None, :]
            np.divide(phase, n_d, out=phase)
            out *= np.exp(phase, out=phase)
            np.fft.ifft(out, axis=1, out=out)
            # the window phase exp(i 2 pi t0 (nu - rate tau)) is a Doppler
            # row times a lag column
            out *= np.exp(1j * 2.0 * math.pi * u.t0 * nu_axis)
            out *= np.exp(-1j * 2.0 * math.pi * u.t0 * rate * tau)[:, None]
        out *= np.exp(-1j * math.pi * rate * tau**2)[:, None]
        return out

    return resample, aligned


def verify_lfm_shear(
    u: SampledSignal,
    v: SampledSignal | None = None,
    rate: float = 4.0,
    n_doppler: int | None = None,
    tol: float = 1e-4,
) -> CheckReport:
    """Chirp shear: the surface of the chirped pair equals the original
    surface resampled at (tau, nu - rate*tau) times exp(-i pi rate tau^2),
    the pullback along t(-rate).  A rate that is not a finite real raises
    InvalidParameterError, and one that would chirp u or v past the Nyquist
    band AliasingError, before any surface is built."""
    v = _partner(u, v)
    chirped = chirp_multiply(u, rate), chirp_multiply(v, rate)
    base = _ambiguity_blocks([(u, v)], n_doppler)
    resample, aligned = _shear_resample(base.tau_axis, base.nu_axis, u, rate)
    path_a = _ambiguity_blocks([chirped], n_doppler)
    pairs = ((a, resample(start, b)) for start, (a, b) in _row_runs(path_a, base))
    return _dual_path_report("sym-lfm", pairs, tol, {"rate": rate, "aligned": aligned})


def _dilation_factor(b: float, n: int) -> tuple[int, bool]:
    """(k, reciprocal): b = k, or b = 1/k if reciprocal, for a whole k from 1
    to n - 1, within _SNAP.

    Past k = n - 1 only lag 0 of the parent survives the stride, so a larger
    factor is refused before any signal is dilated or parent allocated.  A
    b that is neither k nor 1/k sends surface points between grid points.
    """
    _require_positive(b=b)
    reciprocal = b < 1.0
    x = 1.0 / b if reciprocal else b
    if x > n - 1 + _SNAP:
        raise InvalidParameterError(
            f"dilation by {b} needs a factor of at most n - 1 = {n - 1}, got {x}"
        )
    k = _snap(x, _SNAP)
    if k is None:
        raise GridAlignmentError(
            f"dilation by {b} is neither a whole k nor 1/k, so its surface "
            f"points fall between grid points"
        )
    return k, reciprocal


def verify_dilation(
    u: SampledSignal,
    v: SampledSignal | None = None,
    b: float = 2.0,
    n_doppler: int | None = None,
    tol: float = 1e-4,
) -> CheckReport:
    """Dilation: the surface of the time-dilated pair equals
    (1/b) chi(u,v)(b tau, nu/b), the pullback along m(b), for b = k or
    b = 1/k with k a whole number from 1 to n - 1.

    Both directions compare the surface of a coarse pair, route (a), with
    (1/k) chi(fine pair)(k tau, nu/k), route (b), read exactly from the fine
    pair's parent surface with k times the Doppler bins.  For b = k the fine
    pair is (u, v) and the coarse pair the dilated one.  For b = 1/k the
    roles swap: with D = dilate(., 1/k) the identity reads
    chi(u,v)(tau, nu) = (1/k) chi(Du, Dv)(k tau, nu/k).  The two routes
    share only their inputs.  Any other b raises GridAlignmentError, and a
    k past n - 1 InvalidParameterError.

    Every target point is a grid point of the parent: its lag row k i and
    its central n_doppler bins.  So the parent is built on every k-th lag
    only, 2K + 1 rows for K = (n-1)//k, and route (a) on the same lags,
    rows n-1-K .. n-1+K, and the two stream side by side.
    """
    v = _partner(u, v)
    n_doppler = _check_doppler_count(n_doppler, u.n, cyclic=False)
    k, reciprocal = _dilation_factor(b, u.n)
    du, dv = dilate(u, b), dilate(v, b)
    if reciprocal:
        fine, coarse, scale, route = (du, dv), (u, v), 1.0 / b, "reciprocal-parent"
    else:
        fine, coarse, scale, route = (u, v), (du, dv), b, "exact-parent"
    n, half, col0 = u.n, (u.n - 1) // k, (k - 1) * n_doppler // 2
    parent = _ambiguity_blocks([fine], k * n_doppler, rows=slice((n - 1) % k, None, k))
    path_a = _ambiguity_blocks([coarse], n_doppler, rows=slice(n - 1 - half, n + half))
    central = slice(col0, col0 + n_doppler)
    pairs = (
        (a, np.divide(p[:, central], scale, out=p[:, central]))
        for _, (a, p) in _row_runs(path_a, parent)
    )
    return _dual_path_report("sym-dilate", pairs, tol, {"b": b, "route": route})


def verify_mimo_symmetry(
    waveforms: list[SampledSignal],
    gamma: float,
    fs: float,
    fs_prime: float,
    check: Callable[..., CheckReport],
    **kwargs: Any,
) -> CheckReport:
    """A scalar identity lifted to the spatial slice at fixed (fs, fs').

    chi is linear in its first signal and conjugate-linear in its second,
    so the slice sum_{m,m'} chi(u_m, u_m') exp(i 2 pi gamma (fs m - fs' m'))
    is the cross-ambiguity chi(U, V) of the beamformed pair U, V.  check,
    one of verify_fourier_rotation, verify_mirror, verify_lfm_shear and
    verify_dilation, therefore runs on (U, V) unchanged, with kwargs
    passed through: check(U, V, **kwargs).  For the mirror that compares
    chi(U, V) against the independently computed swapped slice chi(V, U).
    Any other check raises InvalidParameterError before a beam is formed,
    and a beam of zero energy before any surface is built.
    The report is renamed "sym-mimo" and info["kind"] holds the name of
    check.
    """
    if check not in (verify_fourier_rotation, verify_mirror, verify_lfm_shear, verify_dilation):
        raise InvalidParameterError(
            "pass one of verify_fourier_rotation, verify_mirror, "
            f"verify_lfm_shear or verify_dilation, got {check!r}"
        )
    rep = check(*mimo_beams(waveforms, gamma, fs, fs_prime), **kwargs)
    return replace(rep, name="sym-mimo", info={"kind": check.__name__, **rep.info})
