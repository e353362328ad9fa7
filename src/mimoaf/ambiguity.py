"""Cross-ambiguity surfaces, Wigner distributions, and MIMO spatial slices.

The cross-ambiguity of two signals on a common grid is

    chi(u, v)(tau, nu) = dt * sum_n u[n] * conj(v[n + k]) * exp(i 2 pi nu t_n)

with tau = k dt, evaluated on a lag/Doppler grid.  Two lag conventions are
supported: "linear" (zero-filled products over lags -(n-1) .. n-1, the
default) and "cyclic" (mod-n products over lags -n/2 .. n/2-1, which is what
makes Fourier-rotation identities exact on matched grids).

Every FFT-accelerated routine here has a brute-force twin
(:func:`cross_ambiguity_oracle`) computed as a dense matrix product against
the explicit Doppler kernel exp(i 2 pi nu t_n).  The twins share nothing
past the product array, so agreement is a real cross-check.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridAlignmentError, GridMismatchError, InvalidParameterError
from .signals import SampledSignal, _require_count

__all__ = [
    "AmbiguitySurface",
    "WignerDistribution",
    "SteeringConfig",
    "cross_ambiguity",
    "cross_ambiguity_oracle",
    "wigner",
    "ambiguity_from_wigner",
    "mimo_beams",
    "mimo_ambiguity",
    "mimo_slice_spatial",
    "spatial_integral",
    "mimo_energy_quadrature",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _axis_index(axis: np.ndarray, x: float, quantity: str, axis_name: str) -> int:
    """Index of x on a uniform ascending axis, within 1e-6 of a step."""
    pos = (x - axis[0]) / float(axis[1] - axis[0])
    idx = round(pos) if math.isfinite(pos) else -1
    if abs(pos - idx) > 1e-6 or not (0 <= idx < axis.size):
        raise GridAlignmentError(f"{quantity} {x} is not on the {axis_name} axis")
    return idx


@dataclass(frozen=True, eq=False)
class AmbiguitySurface:
    """Sampled surface over the delay-Doppler plane.

    Attributes:
        values: complex array indexed [lag, doppler].
        tau_axis: delays in seconds, ascending, uniform.
        nu_axis: Doppler frequencies in Hz, ascending, uniform.
        kind: "linear" or "cyclic" lag convention.
        dt: sample spacing of the underlying signals.
        t0: window start of the underlying signals.
    """

    values: npt.NDArray[np.complex128]
    tau_axis: npt.NDArray[np.float64]
    nu_axis: npt.NDArray[np.float64]
    kind: str
    dt: float
    t0: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        tau = np.asarray(self.tau_axis, dtype=np.float64)
        nu = np.asarray(self.nu_axis, dtype=np.float64)
        if vals.shape != (tau.size, nu.size):
            raise InvalidParameterError(
                f"values shape {vals.shape} does not match axes ({tau.size}, {nu.size})"
            )
        if tau.size < 2 or nu.size < 2:
            # an axis needs two points for its step (d_tau, d_nu)
            raise InvalidParameterError(
                f"a surface needs at least 2 points on each axis, got {vals.shape}"
            )
        if self.kind not in ("linear", "cyclic"):
            raise InvalidParameterError(f"unknown surface kind {self.kind!r}")
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "tau_axis", _freeze(tau))
        object.__setattr__(self, "nu_axis", _freeze(nu))

    @property
    def n_lag(self) -> int:
        return self.tau_axis.size

    @property
    def n_doppler(self) -> int:
        return self.nu_axis.size

    @property
    def d_tau(self) -> float:
        return float(self.tau_axis[1] - self.tau_axis[0])

    @property
    def d_nu(self) -> float:
        return float(self.nu_axis[1] - self.nu_axis[0])

    def lag_index(self, tau: float) -> int:
        return _axis_index(self.tau_axis, tau, "delay", "lag")

    def doppler_index(self, nu: float) -> int:
        return _axis_index(self.nu_axis, nu, "Doppler", "Doppler")

    def value_at(self, tau: float, nu: float) -> complex:
        return complex(self.values[self.lag_index(tau), self.doppler_index(nu)])

    def energy(self) -> float:
        """Quadrature of |values|^2 over the whole surface."""
        return float(np.sum(np.abs(self.values) ** 2) * self.d_tau * self.d_nu)


# The surface is built in blocks of lag rows holding about this many bytes of
# output, so a streamed surface needs one block of memory at any size.
_BLOCK_BYTES = 4 * 2**20


def _lag_rows(
    u: SampledSignal, v: SampledSignal, cyclic: bool
) -> tuple[np.ndarray, Callable[[int, np.ndarray], None]]:
    """The lag set and a gather of the rows P[i, n] = u[n] * conj(v[n + lag_i]):
    gather(start, out) fills out with rows start .. start + len(out) - 1."""
    n = u.n
    us = u.samples
    cv = np.conj(v.samples)
    if cyclic:
        if n % 2:
            raise InvalidParameterError("cyclic lags require an even sample count")
        h = n // 2
        # window i of conj(v), wrapped by n/2 on each side, is row i: conj(v)
        # rolled by the lag i - n/2
        windows = sliding_window_view(np.concatenate([cv[h:], cv, cv[:h]]), n)[:n]

        def gather(start: int, out: np.ndarray) -> None:
            np.multiply(us, windows[start : start + len(out)], out=out)

        return np.arange(-h, h), gather
    # window i of conj(v), zero-padded by n-1 on each side, is row i at lag
    # i - (n-1); the mask leaves cells past the signal's ends at +0, where a
    # plain product would write u * 0 and so sometimes -0
    windows = sliding_window_view(np.pad(cv, n - 1), n)
    inside = sliding_window_view(np.pad(np.ones(n, dtype=bool), n - 1), n)

    def gather(start: int, out: np.ndarray) -> None:
        rows = slice(start, start + len(out))
        out.fill(0)
        np.multiply(us, windows[rows], out=out, where=inside[rows])

    return np.arange(-(n - 1), n), gather


def _lag_products(
    u: SampledSignal, v: SampledSignal, cyclic: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Every row of P at once, for the direct-sum oracle."""
    lags, gather = _lag_rows(u, v, cyclic)
    P = np.empty((lags.size, u.n), dtype=np.complex128)
    gather(0, P)
    return P, lags


def _doppler_axis(n_doppler: int, dt: float) -> np.ndarray:
    return np.fft.fftshift(np.fft.fftfreq(n_doppler, d=dt))


def _check_doppler_count(n_doppler: int | None, n: int, cyclic: bool) -> int:
    if n < 2:
        raise InvalidParameterError(f"a surface needs at least 2 samples, got {n}")
    if n_doppler is None:
        n_doppler = n if cyclic else 4 * n
    if _require_count("n_doppler", n_doppler, n) % 2:
        raise InvalidParameterError(
            f"n_doppler must be an even integer >= {n}, got {n_doppler}"
        )
    return n_doppler


class _SurfaceBlocks:
    """The one row-block loop behind every FFT surface.

    It builds the surface of a list of signal pairs, sum_i chi(u_i, v_i):
    one pair gives chi(u, v), and the pairs (u_m, u_m) give the MIMO trace.
    chi is linear in its lag products, so the sum is the Doppler transform
    of the summed products, and a block needs one FFT however many pairs
    there are.  Each block gathers the first pair's lag-product rows, adds
    each further pair's rows from one scratch block in list order, flips
    the sign of their odd columns, runs the zero-padded inverse FFT
    straight into its destination rows and applies the scale-and-phase row
    there in place.  One pair takes no scratch block and no add.  With
    whole=True the destinations are rows of one surface, ``values``;
    otherwise ``values`` is one block buffer, reused, so a block holds only
    until the next.

    Construction checks every size and allocates the buffers, so a bad size
    or an allocation too large fails before anything is computed or
    written.  Iterating yields (first row, block) in lag order.

    The centred Doppler axis comes from the FFT input, not from an fftshift
    of its output: n_doppler is even, so shifting the output by n_doppler/2
    bins is the same as multiplying input sample m by (-1)^m.  The flip is
    exact.  This matches ifft-then-fftshift bit for bit only where
    pocketfft rounds the flipped input the same way (power-of-two lengths)
    and n_doppler*dt is a power of two, and even there a cell that is
    exactly zero may flip the sign of its zero; elsewhere the two differ at
    rounding level.  pocketfft transforms each row on its own and the sums
    are per cell, so the block size does not change a bit of the result.
    """

    def __init__(
        self,
        pairs: list[tuple[SampledSignal, SampledSignal]],
        n_doppler: int | None,
        cyclic: bool,
        whole: bool,
    ) -> None:
        u = pairs[0][0]
        for a, b in pairs:
            u.require_compatible(a)
            a.require_compatible(b)
        self.n_doppler = _check_doppler_count(n_doppler, u.n, cyclic)
        lag_rows = [_lag_rows(a, b, cyclic) for a, b in pairs]
        self.lags = lag_rows[0][0]
        self._gathers = [gather for _, gather in lag_rows]
        self.tau_axis = self.lags * u.dt
        self.nu_axis = _doppler_axis(self.n_doppler, u.dt)
        # the scale n_doppler*dt times the window phase exp(i 2 pi nu t0)
        self._scale = (self.n_doppler * u.dt) * np.exp(
            1j * 2.0 * math.pi * self.nu_axis * u.t0
        )
        n_lag = self.lags.size
        self._rows = min(n_lag, max(1, _BLOCK_BYTES // (16 * self.n_doppler)))
        self._products = np.empty((self._rows, u.n), dtype=np.complex128)
        self._scratch = np.empty_like(self._products) if len(pairs) > 1 else None
        self._whole = whole
        self.values = np.empty(
            (n_lag if whole else self._rows, self.n_doppler), dtype=np.complex128
        )

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        n_lag = self.lags.size
        first, *rest = self._gathers
        for start in range(0, n_lag, self._rows):
            stop = min(start + self._rows, n_lag)
            P = self._products[: stop - start]
            first(start, P)
            for gather in rest:
                more = self._scratch[: stop - start]
                gather(start, more)
                P += more
            np.negative(P[:, 1::2], out=P[:, 1::2])
            block = self.values[start:stop] if self._whole else self.values[: stop - start]
            np.fft.ifft(P, n=self.n_doppler, axis=1, out=block)
            block *= self._scale
            yield start, block


def _surface(
    pairs: list[tuple[SampledSignal, SampledSignal]],
    n_doppler: int | None,
    cyclic: bool = False,
) -> AmbiguitySurface:
    """sum_i chi(u_i, v_i) over the pairs, built whole in memory."""
    blocks = _SurfaceBlocks(pairs, n_doppler, cyclic, whole=True)
    for _ in blocks:
        pass
    u = pairs[0][0]
    return AmbiguitySurface(
        blocks.values, blocks.tau_axis, blocks.nu_axis,
        "cyclic" if cyclic else "linear", u.dt, u.t0,
    )


def cross_ambiguity(
    u: SampledSignal,
    v: SampledSignal | None = None,
    n_doppler: int | None = None,
    cyclic: bool = False,
) -> AmbiguitySurface:
    """Cross-ambiguity surface of u against v (v = u gives the auto surface).

    The Doppler transform runs as a zero-padded inverse FFT over the sample
    index, then picks up the window phase exp(i 2 pi nu t0) so the result
    matches the absolute-time definition.

    The surface is allocated once and filled in blocks of lag rows, each
    block's lag products transformed straight into its rows (see
    :class:`_SurfaceBlocks`).  Besides the surface, only the lag products
    of one block are alive, never all (2n-1) x n of them.

    Args:
        u, v: signals on a common grid.
        n_doppler: Doppler bins; defaults to 4n (linear) or n (cyclic).
        cyclic: use mod-n lag products on lags -n/2 .. n/2-1.
    """
    return _surface([(u, u if v is None else v)], n_doppler, cyclic)


def cross_ambiguity_oracle(
    u: SampledSignal,
    v: SampledSignal | None = None,
    n_doppler: int | None = None,
    cyclic: bool = False,
) -> AmbiguitySurface:
    """Brute-force twin of :func:`cross_ambiguity`.

    Sums the defining series against the dense kernel exp(i 2 pi nu t_n)
    with absolute sample times.  Quadratic cost; used for cross-checks.
    """
    if v is None:
        v = u
    u.require_compatible(v)
    n_doppler = _check_doppler_count(n_doppler, u.n, cyclic)
    P, lags = _lag_products(u, v, cyclic)
    nu_axis = _doppler_axis(n_doppler, u.dt)
    kernel = np.exp(1j * 2.0 * math.pi * np.outer(u.times, nu_axis))
    X = u.dt * (P @ kernel)
    return AmbiguitySurface(
        X, lags * u.dt, nu_axis, "cyclic" if cyclic else "linear", u.dt, u.t0
    )


@dataclass(frozen=True, eq=False)
class WignerDistribution:
    """Wigner (cross-)distribution sampled on the signal's time grid.

    values[n, l] approximates W(t_n, f_l); for a single signal the surface
    is real up to rounding and its frequency sum recovers |u|^2 exactly.
    """

    values: npt.NDArray[np.complex128]
    time_axis: npt.NDArray[np.float64]
    freq_axis: npt.NDArray[np.float64]
    dt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(np.asarray(self.values, dtype=np.complex128)))
        object.__setattr__(self, "time_axis", _freeze(np.asarray(self.time_axis, dtype=np.float64)))
        object.__setattr__(self, "freq_axis", _freeze(np.asarray(self.freq_axis, dtype=np.float64)))

    @property
    def d_freq(self) -> float:
        return float(self.freq_axis[1] - self.freq_axis[0])

    def time_marginal(self) -> npt.NDArray[np.complex128]:
        """Frequency quadrature per time sample; equals u[n] * conj(v[n])."""
        return np.sum(self.values, axis=1) * self.d_freq


def wigner(
    u: SampledSignal, v: SampledSignal | None = None, n_freq: int | None = None
) -> WignerDistribution:
    """Wigner distribution via even-lag products:

        W[n, l] = 2 dt * sum_m u[n+m] conj(v[n-m]) exp(-i 2 pi l m / n_freq)

    sampled at f_l = l / (2 dt n_freq), covering half the Nyquist band.
    Keep signals inside that band (the generators' default padding does).
    """
    if v is None:
        v = u
    u.require_compatible(v)
    n = u.n
    if n < 2:
        raise InvalidParameterError(
            f"a Wigner distribution needs at least 2 samples, got {n}"
        )
    if n_freq is None:
        n_freq = 2 * n
    if _require_count("n_freq", n_freq, n) % 2:
        raise InvalidParameterError(f"n_freq must be an even integer >= {n}")
    us = u.samples
    vs = v.samples
    R = np.zeros((n, n_freq), dtype=np.complex128)
    for ni in range(n):
        m_max = min(ni, n - 1 - ni)
        m = np.arange(-m_max, m_max + 1)
        R[ni, m % n_freq] = us[ni + m] * np.conj(vs[ni - m])
    np.fft.fft(R, axis=1, out=R)
    # fftshift and the 2 dt scale in one pass: the two half-spectra swap
    W = np.empty_like(R)
    half, scale = n_freq // 2, 2.0 * u.dt
    np.multiply(R[:, half:], scale, out=W[:, :half])
    np.multiply(R[:, :half], scale, out=W[:, half:])
    freq_axis = np.fft.fftshift(np.fft.fftfreq(n_freq, d=2.0 * u.dt))
    return WignerDistribution(W, u.times, freq_axis, u.dt)


def ambiguity_from_wigner(
    w: WignerDistribution,
    tau_axis: npt.NDArray[np.float64],
    nu_axis: npt.NDArray[np.float64],
) -> AmbiguitySurface:
    """Map a Wigner distribution back to the ambiguity plane:

        chi(tau, nu) = exp(-i pi nu tau) *
                       integral W(t, f) exp(i 2 pi nu t) exp(-i 2 pi f tau) dt df

    evaluated by dense quadrature on the requested output axes.  Used as a
    second route to the ambiguity surface.
    """
    tau_axis = np.asarray(tau_axis, dtype=np.float64)
    nu_axis = np.asarray(nu_axis, dtype=np.float64)
    Et = np.exp(1j * 2.0 * math.pi * np.outer(w.time_axis, nu_axis))
    Ef = np.exp(-1j * 2.0 * math.pi * np.outer(w.freq_axis, tau_axis))
    temp = w.values.T @ Et  # (n_freq, n_nu)
    vals = (Ef.T @ temp) * (w.dt * w.d_freq)
    vals *= np.exp(-1j * math.pi * np.outer(tau_axis, nu_axis))
    return AmbiguitySurface(
        vals, tau_axis, nu_axis, "linear", w.dt, float(w.time_axis[0])
    )


@dataclass(frozen=True)
class SteeringConfig:
    """Uniform linear array geometry for spatial beam slices.

    Attributes:
        n_elements: transmit element count M.
        gamma: element spacing in carrier wavelengths.
        n_spatial: quadrature points K on the normalized sine axis [0, 1).
    """

    n_elements: int
    gamma: float
    n_spatial: int

    def __post_init__(self) -> None:
        _require_count("n_elements", self.n_elements, 1)
        _require_count("n_spatial", self.n_spatial, 2)
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise InvalidParameterError(f"gamma must be positive, got {self.gamma}")
        if self.n_spatial <= self.gamma * (self.n_elements - 1):
            raise InvalidParameterError(
                f"n_spatial = {self.n_spatial} cannot resolve steering frequencies up "
                f"to gamma*(M-1) = {self.gamma * (self.n_elements - 1)}"
            )

    @property
    def fs_grid(self) -> npt.NDArray[np.float64]:
        return np.arange(self.n_spatial) / self.n_spatial

    def steering_phases(self, fs: float) -> npt.NDArray[np.complex128]:
        """exp(i 2 pi gamma fs m), m = 0 .. M-1."""
        if not 0.0 <= fs < 1.0:
            raise InvalidParameterError(
                f"spatial frequency must lie in [0, 1), got {fs}"
            )
        return np.exp(
            1j * 2.0 * math.pi * self.gamma * fs * np.arange(self.n_elements)
        )

    def phase_matrix(self) -> npt.NDArray[np.complex128]:
        """(K, M) array of steering phases along the fs grid."""
        return np.exp(
            1j
            * 2.0
            * math.pi
            * self.gamma
            * np.outer(self.fs_grid, np.arange(self.n_elements))
        )

    def require_integer_gamma(self) -> int:
        g = round(self.gamma)
        if abs(self.gamma - g) > 1e-12:
            raise InvalidParameterError(
                f"this identity needs an integer spacing gamma, got {self.gamma}"
            )
        return int(g)


def _require_array(waveforms: list[SampledSignal], cfg: SteeringConfig) -> None:
    """One waveform per array element, all on one grid."""
    if len(waveforms) != cfg.n_elements:
        raise GridMismatchError(
            f"{len(waveforms)} waveforms for an array of {cfg.n_elements} elements"
        )
    for w in waveforms[1:]:
        waveforms[0].require_compatible(w)


def mimo_beams(
    waveforms: list[SampledSignal], cfg: SteeringConfig, fs: float, fs_prime: float
) -> tuple[SampledSignal, SampledSignal]:
    """The beamformed pair U = sum_m exp(i 2 pi gamma fs m) u_m and V, the
    same at fs'."""
    _require_array(waveforms, cfg)

    def beam(f: float) -> SampledSignal:
        phases = cfg.steering_phases(f)
        return waveforms[0].replace_samples(
            sum(c * w.samples for c, w in zip(phases, waveforms))
        )

    return beam(fs), beam(fs_prime)


def mimo_ambiguity(
    waveforms: list[SampledSignal],
    cfg: SteeringConfig,
    fs: float,
    fs_prime: float,
    n_doppler: int | None = None,
) -> AmbiguitySurface:
    """Spatial slice sum_{m,m'} chi_{m,m'}(tau, nu) exp(i 2 pi gamma (fs m - fs' m')).

    chi is linear in its first signal and conjugate-linear in its second,
    so the slice is the single surface chi(U, V) of the beamformed pair
    (:func:`mimo_beams`); see San Antonio, Fuhrmann & Robey, "MIMO Radar
    Ambiguity Functions", IEEE JSTSP 1(1), 2007.
    """
    return cross_ambiguity(*mimo_beams(waveforms, cfg, fs, fs_prime), n_doppler=n_doppler)


def mimo_slice_spatial(
    waveforms: list[SampledSignal],
    cfg: SteeringConfig,
    tau: float,
    nu: float,
    n_doppler: int | None = None,
) -> npt.NDArray[np.complex128]:
    """All K x K spatial slices at one delay-Doppler point: V = Z X Z^H with
    Z the phase matrix and X[m, p] = chi(u_m, u_p)(tau, nu).

    tau and nu must land on the lag and Doppler axes of the surfaces
    cross_ambiguity would build with n_doppler bins; X is then summed
    directly at that grid point, dt sum_n u_m[n] conj(u_p[n+k]) exp(i 2 pi nu t_n),
    in O(M^2 n) with no FFT.
    """
    _require_array(waveforms, cfg)
    first = waveforms[0]
    n = first.n
    n_doppler = _check_doppler_count(n_doppler, n, cyclic=False)
    lags = np.arange(-(n - 1), n)
    nu_axis = _doppler_axis(n_doppler, first.dt)
    k = int(lags[_axis_index(lags * first.dt, tau, "delay", "lag")])
    nu = float(nu_axis[_axis_index(nu_axis, nu, "Doppler", "Doppler")])
    U = np.stack([w.samples for w in waveforms])
    phase = np.exp(1j * 2.0 * math.pi * nu * first.times)
    if k >= 0:
        X = (U[:, : n - k] * phase[: n - k]) @ U[:, k:].conj().T
    else:
        X = (U[:, -k:] * phase[-k:]) @ U[:, : n + k].conj().T
    X *= first.dt
    Z = cfg.phase_matrix()
    return Z @ X @ Z.conj().T


def _trace_pairs(
    waveforms: list[SampledSignal], cfg: SteeringConfig
) -> list[tuple[SampledSignal, SampledSignal]]:
    """The self pairs (u_m, u_m) whose surfaces sum to the spatial integral,
    once the array and its whole-wavelength spacing are checked."""
    _require_array(waveforms, cfg)
    cfg.require_integer_gamma()
    return [(w, w) for w in waveforms]


def spatial_integral(
    waveforms: list[SampledSignal],
    cfg: SteeringConfig,
    n_doppler: int | None = None,
) -> AmbiguitySurface:
    """Integral of the co-steered slice over fs in [0, 1), which collapses to
    the trace sum_m chi(u_m, u_m) for whole-wavelength spacings.

    The identity holds because the steering phases of a whole-wavelength
    array are orthogonal on the K-point fs grid, so the M^2 - M cross terms
    cancel; the trace is built from the M self pairs alone.  chi is linear
    in its lag products, so the trace is one Doppler transform of the
    summed products sum_m u_m[n] conj(u_m[n + k]): one FFT surface, not M
    (see :class:`_SurfaceBlocks`).  Besides the trace, two blocks of lag
    products are alive.
    """
    return _surface(_trace_pairs(waveforms, cfg), n_doppler)


def mimo_energy_quadrature(
    waveforms: list[SampledSignal],
    cfg: SteeringConfig,
    n_doppler: int | None = None,
) -> float:
    """Four-fold energy of the spatial slices,

        (1/K^2) sum_{a,b} integral |slice(fs_a, fs_b)(tau, nu)|^2 dtau dnu,

    as the running sum of the M^2 pair-surface energies
    integral |chi(u_m, u_p)|^2 over every ordered pair, one surface alive at
    a time.  For integer gamma and K > gamma (M-1) the steering phases are
    orthonormal on the K-point fs grid, the same fact spatial_integral uses,
    so every term that pairs two different (m, p) cancels in the fs sums.
    """
    _require_array(waveforms, cfg)
    cfg.require_integer_gamma()
    return sum(
        cross_ambiguity(u, v, n_doppler=n_doppler).energy()
        for u in waveforms
        for v in waveforms
    )
