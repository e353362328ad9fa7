"""SL(2,R) covariance of ambiguity surfaces, checked along two routes.

The generators

    J = [[0, 1], [-1, 0]]   (quarter-turn of the delay-Doppler plane)
    t(a) = [[1, 0], [a, 1]] (shear)
    m(b) = [[b, 0], [0, 1/b]] (dilation)

and the point reflection -I = J^2 act on an ambiguity surface by
coordinate remap, and on the underlying signals by Fourier transform,
chirp multiplication, time dilation and swapping the pair.  Each verify
routine computes one identity along both routes (surface remap vs
transformed signals) and reports the relative Frobenius distance.  The
MIMO lift, :func:`verify_mimo_symmetry`, is handed one of the four scalar
verifiers and runs it on the beamformed signal pair, whose
cross-ambiguity is the spatial slice.

Grid notes baked into the checks:

* The factor exp(+-i 2 pi tau nu) of the rotation and mirror identities
  is read from the root-of-unity table ``_unit_roots`` by integer index.
* The rotation identity needs the frequency grid to coincide with the
  time grid (n dt^2 = 1) and cyclic lag products, under which it is exact.
  With the forward Fourier transform the rotation appears as the inverse
  quarter-turn, which on that grid is the index relabel
  out[a, l] = s[n - l, a]; only Doppler bin 0 has no source.
* The mirror check relabels the surface by reversing both index axes, a
  pure permutation on symmetric axes, and is held to 1e-9.
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

Every relative distance takes its norms with numpy's own summation loop,
not a BLAS dot, whose bits change with the BLAS thread count.

Memory: no comparison holds more than three surfaces of its grid at once,
plus the block of lag products of the surface being built.  The dilation
parent, with k times the Doppler bins, is built only on the lags it is
read at, every k-th: (2 floor((n-1)/k) + 1) k N cells, at most 1.5
surfaces.  Route (b) keeps only its central bins.  Every check builds
route (b) first and route (a) only once every surface route (b) needed is
gone, and takes the difference in place over route (b)'s cells.  Index
and phase arrays are built one row block at a time.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import replace
from typing import Any

import numpy as np

from .ambiguity import (
    AmbiguitySurface,
    _check_doppler_count,
    _surface,
    _unit_roots,
    _window_shift,
    cross_ambiguity,
    mimo_beams,
)
from .errors import GridAlignmentError, GridMismatchError, InvalidParameterError
from .properties import CheckReport
from .signals import SampledSignal, _require_positive, _snap, chirp_multiply, dilate, fourier

__all__ = [
    "verify_fourier_rotation",
    "verify_mirror",
    "verify_lfm_shear",
    "verify_dilation",
    "verify_mimo_symmetry",
]

_SNAP = 1e-9
_COVERAGE_FLOOR = 0.9
# cells per row block of the index and phase arrays, which peak at 24 bytes
# a cell (an int64 index and a complex phase), so 384 KiB a block
_BLOCK_CELLS = 2**14


def _tau_nu_phase(values: np.ndarray, sign: int, conj: bool = False) -> np.ndarray:
    """values (conj(values) if conj) times exp(sign i 2 pi tau nu), as a new
    array, on a grid :func:`cross_ambiguity` built.

    Row i of L is lag k = i - L//2, so the phase at Doppler bin j of N is
    roots[sign k (j - N/2) mod N], read one row block at a time.
    """
    L, N = values.shape
    roots = _unit_roots(N)
    k = sign * (np.arange(L) - L // 2)
    j = np.arange(N) - N // 2
    out = np.empty_like(values)
    rows = max(1, _BLOCK_CELLS // N)
    for start in range(0, L, rows):
        blk = slice(start, start + rows)
        idx = np.multiply.outer(k[blk], j)
        phase = roots[np.remainder(idx, N, out=idx)]
        src = np.conjugate(values[blk], out=out[blk]) if conj else values[blk]
        np.multiply(src, phase, out=out[blk])
    return out


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of a complex array whose last axis is contiguous.

    einsum sums the squares of its float64 view with numpy's own loop, so a
    strided view is read in place and, unlike the BLAS dot behind
    np.linalg.norm, the bits do not depend on the BLAS thread count.
    """
    f = x.view(np.float64)
    axes = "abcdefgh"[: f.ndim]
    return math.sqrt(float(np.einsum(f"{axes},{axes}->", f, f)))


def _masked_frobenius(
    a: np.ndarray, b: np.ndarray, whole: np.ndarray | None
) -> tuple[float, float]:
    """(relative distance, mass coverage of b within whole) over the compared
    cells a and b; whole is all of route (b), None when b is all of it.

    b is overwritten with a - b once its norms are read, so the difference
    needs no surface of its own.
    """
    den = _norm(b)
    total = den if whole is None else _norm(whole)
    coverage = (den / total) ** 2 if total > 0.0 else 0.0
    diff = np.subtract(a, b, out=b)
    return _norm(diff) / max(den, 1e-300), coverage


def _dual_path_report(
    name: str,
    path_a: np.ndarray,
    path_b: np.ndarray,
    whole: np.ndarray | None,
    tol: float,
    info: dict,
) -> CheckReport:
    rel, coverage = _masked_frobenius(path_a, path_b, whole)
    info = dict(info)
    info["coverage"] = coverage
    covered = coverage >= _COVERAGE_FLOOR
    rel_err = rel if covered else max(rel, 1.0)
    return CheckReport(name, rel, 0.0, rel, rel_err, tol, info, gate=covered)


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
    s(-nu, tau), is the relabel out[a, l] = s[n - l, a]; Doppler bin 0
    would read lag row n, off the grid, and is left out.  Route (b) is
    built, and the Fourier pair's surface dropped, before chi(u, v) is.
    """
    if v is None:
        v = u
    u.require_compatible(v)
    n = u.n
    if abs(n * u.dt * u.dt - 1.0) > 1e-9:
        raise GridMismatchError(
            f"rotation check needs n*dt^2 = 1 so the Fourier grid matches; "
            f"got n={n}, dt={u.dt}"
        )
    s_hat = cross_ambiguity(fourier(u), fourier(v), n_doppler=n, cyclic=True)
    path_b = _tau_nu_phase(s_hat.values, 1)
    del s_hat
    s = cross_ambiguity(u, v, n_doppler=n, cyclic=True)
    return _dual_path_report("sym-J", _rotation_relabel(s), path_b[:, 1:], path_b, tol, {})


def _rotation_relabel(s: AmbiguitySurface) -> np.ndarray:
    """s(-nu, tau) on Doppler bins 1 .. n-1 of a cyclic n dt^2 = 1 grid: the
    view out[a, l - 1] = s[n - l, a]."""
    return s.values[:0:-1].T


def verify_mirror(
    u: SampledSignal,
    v: SampledSignal | None = None,
    n_doppler: int | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Point reflection: chi(u,v)(-tau,-nu) = conj(chi(v,u)(tau,nu)) e^{-i2pi nu tau}.

    The left side is chi(u,v) relabelled by reversing both index axes, a
    pure permutation on the symmetric axes; the right side is chi(v,u),
    built by its own FFT.  The unpaired -Nyquist Doppler bin is left out.
    The target is built, and chi(v,u) dropped, before chi(u,v) is, so the
    check holds at most three surfaces.
    """
    if v is None:
        v = u
    u.require_compatible(v)
    svu = cross_ambiguity(v, u, n_doppler=n_doppler)
    target = _tau_nu_phase(svu.values, -1, conj=True)
    del svu
    suv = cross_ambiguity(u, v, n_doppler=n_doppler)
    # lag axis is symmetric; Doppler bin 0 (-Nyquist edge) has no partner,
    # so target bin j pairs with the reversed surface's bin j - 1
    flipped = suv.values[::-1, :0:-1]
    return _dual_path_report("sym-mirror", flipped, target[:, 1:], target, tol, {})


def _shear_resample(s: AmbiguitySurface, u: SampledSignal, rate: float) -> tuple[np.ndarray, bool]:
    """Values of s, a surface of signals on u's grid, at (tau, nu - rate*tau)
    times exp(-i pi rate tau^2).

    The discrete surface is periodic in Doppler up to the window phase:
    chi(tau, nu + 1/dt) = exp(i 2 pi t0/dt) chi(tau, nu), exactly periodic
    when the window start t0 is a whole number of samples.  Integer per-row
    shifts roll cyclically, a cell the roll wraps w times taking the factor
    exp(i 2 pi w t0/dt) (skipped when t0/dt is whole, where it is 1);
    fractional shifts are still exact, because once the window-start phase
    splits off, each row is a trigonometric polynomial whose coefficients
    occupy Fourier bins 0 .. n-1, so an off-grid translate is a bin-wise
    phase rotation.
    """
    n_d = s.n_doppler
    # Doppler bins per lag step, rate dt / d_nu with d_nu = 1 / (n_d dt):
    # from the exact grid, not s.d_nu, a difference of two axis values whose
    # rounding long rolls would carry past the alignment snap
    shift_per_lag = rate * n_d * u.dt * u.dt
    lags = np.round(s.tau_axis / u.dt).astype(np.int64)
    # every row's shift must be whole, not just the per-lag step: a step
    # within the snap of an integer can still drift by n times the snap
    shifts = lags * shift_per_lag
    aligned = bool(np.all(np.abs(shifts - np.round(shifts)) <= _SNAP))
    if aligned:
        # np.roll of row i by its whole shift d = q n_d + r, 0 <= r < n_d, as
        # two slice copies.  Cell j reads bin j - d, which the roll wraps
        # w = floor((j - d) / n_d) times: -q on the run [r:], -q - 1 on [:r].
        # A wrap takes exp(i 2 pi f), f the fraction of t0/dt (the whole part
        # gives whole turns)
        turn = 1j * 2.0 * math.pi * _window_shift(u)[1]
        out = np.empty_like(s.values)
        for row, dst, d in zip(s.values, out, np.round(shifts).astype(np.int64).tolist()):
            q, r = divmod(d, n_d)
            dst[r:] = row[: n_d - r]
            dst[:r] = row[n_d - r :]
            if turn:
                dst[r:] *= np.exp(turn * -q)
                dst[:r] *= np.exp(turn * (-q - 1))
    else:
        # s and at most two surface-sized arrays are alive at any step
        phase_in = np.exp(-1j * 2.0 * math.pi * u.t0 * s.nu_axis)[None, :]
        out = np.fft.fft(s.values * phase_in, axis=1)
        phase = -1j * 2.0 * math.pi * shifts[:, None] * np.arange(n_d)[None, :]
        np.divide(phase, n_d, out=phase)
        out *= np.exp(phase, out=phase)
        np.fft.ifft(out, axis=1, out=out)
        # the window phase exp(i 2 pi t0 (nu - rate tau)) is a Doppler row
        # times a lag column
        out *= np.exp(1j * 2.0 * math.pi * u.t0 * s.nu_axis)
        out *= np.exp(-1j * 2.0 * math.pi * u.t0 * rate * s.tau_axis)[:, None]
    out *= np.exp(-1j * math.pi * rate * s.tau_axis**2)[:, None]
    return out, aligned


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
    if v is None:
        v = u
    chirped = chirp_multiply(u, rate), chirp_multiply(v, rate)
    u.require_compatible(v)
    # the unsheared surface is dropped as soon as it is resampled
    path_b, aligned = _shear_resample(cross_ambiguity(u, v, n_doppler=n_doppler), u, rate)
    path_a = cross_ambiguity(*chirped, n_doppler=n_doppler)
    return _dual_path_report(
        "sym-lfm", path_a.values, path_b, None, tol, {"rate": rate, "aligned": aligned}
    )


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
    only, 2K + 1 rows for K = (n-1)//k, and route (a) keeps the same lags,
    rows n-1-K .. n-1+K.  The parent is dropped before route (a) is built.
    """
    if v is None:
        v = u
    u.require_compatible(v)
    n_doppler = _check_doppler_count(n_doppler, u.n, cyclic=False)
    k, reciprocal = _dilation_factor(b, u.n)
    du, dv = dilate(u, b), dilate(v, b)
    if reciprocal:
        fine, coarse, scale, route = (du, dv), (u, v), 1.0 / b, "reciprocal-parent"
    else:
        fine, coarse, scale, route = (u, v), (du, dv), b, "exact-parent"
    parent = _surface([fine], k * n_doppler, step=k)
    col0 = (k * n_doppler) // 2 - n_doppler // 2
    path_b = np.divide(parent.values[:, col0 : col0 + n_doppler], scale)
    del parent
    half = (u.n - 1) // k
    path_a = cross_ambiguity(*coarse, n_doppler=n_doppler).values[u.n - 1 - half : u.n + half]
    return _dual_path_report(
        "sym-dilate", path_a, path_b, None, tol, {"b": b, "route": route},
    )


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
    Any other check raises InvalidParameterError before a beam is formed.
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
