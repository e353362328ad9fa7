"""Sampled complex baseband signals and the operators that act on them.

A signal is a finite window of uniformly spaced complex samples::

    t_n = t0 + n * dt,   n = 0 .. n_samples - 1

All generators in this module place the waveform inside a zero-padded
window that is symmetric about t = 0 (even sample count, t0 = -(n//2)*dt),
so that time shifts in both directions and grid-exact symmetry tests are
possible.  Inner products and energies carry the dt quadrature weight, so
they approximate their continuous-time counterparts.

The time-frequency shift operator implemented by :func:`heisenberg_shift`,

    (T(x1, x2, x3) v)(t) = exp(i 2 pi (x3 + x2 t)) * v(t + x1),

composes according to the group product of :class:`HeisenbergPoint`.  The
delay coordinate x1 must be an integer number of samples; the shifted
signal is zero-filled where the window runs out.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .errors import (
    AliasingError,
    GridAlignmentError,
    GridMismatchError,
    InvalidParameterError,
    TruncationRiskError,
)

__all__ = [
    "SampledSignal",
    "HeisenbergPoint",
    "CANONICAL_SIGMA",
    "inner_product",
    "gen_rect",
    "gen_gaussian",
    "canonical_gaussian",
    "gen_lfm",
    "gen_subcarrier_set",
    "heisenberg_shift",
    "chirp_multiply",
    "dilate",
    "fourier",
]

# sigma for which the generated Gaussian is 2**0.25 * exp(-pi t^2), the
# fixed point of the Fourier transform used throughout the test corpus
CANONICAL_SIGMA = 1.0 / (2.0 * math.sqrt(math.pi))


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniformly sampled complex signal with its grid.

    Attributes:
        samples: complex128 array, read-only after construction.
        dt: sample spacing in seconds, > 0.
        t0: time of samples[0].
    """

    samples: npt.NDArray[np.complex128]
    dt: float
    t0: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidParameterError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise InvalidParameterError("samples must be finite")
        _require_positive(dt=self.dt)
        _require_real(t0=self.t0)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def times(self) -> npt.NDArray[np.float64]:
        return self.t0 + np.arange(self.n) * self.dt

    def energy(self) -> float:
        """Quadrature energy dt * sum |samples|^2."""
        return float(self.dt * np.sum(np.abs(self.samples) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.energy())

    def compatible_with(self, other: "SampledSignal") -> bool:
        return self.n == other.n and self.dt == other.dt and self.t0 == other.t0

    def require_compatible(self, other: "SampledSignal") -> None:
        if not self.compatible_with(other):
            raise GridMismatchError(
                f"grids differ: (n={self.n}, dt={self.dt}, t0={self.t0}) vs "
                f"(n={other.n}, dt={other.dt}, t0={other.t0})"
            )

    def replace_samples(self, samples: npt.NDArray[np.complex128]) -> "SampledSignal":
        return SampledSignal(samples, self.dt, self.t0)


@dataclass(frozen=True)
class HeisenbergPoint:
    """Group element (tau, nu, x3): delay, Doppler, and central phase turn.

    The product is (x * y) = (x1+y1, x2+y2, x3+y3+x1*y2); the represented
    operators then satisfy T(x) T(y) = T(x * y).
    """

    tau: float
    nu: float
    x3: float = 0.0

    def __post_init__(self) -> None:
        _require_real(tau=self.tau, nu=self.nu, x3=self.x3)

    def compose(self, other: "HeisenbergPoint") -> "HeisenbergPoint":
        return HeisenbergPoint(
            self.tau + other.tau,
            self.nu + other.nu,
            self.x3 + other.x3 + self.tau * other.nu,
        )

    def inverse(self) -> "HeisenbergPoint":
        return HeisenbergPoint(-self.tau, -self.nu, -self.x3 + self.tau * self.nu)


def inner_product(u: SampledSignal, v: SampledSignal) -> complex:
    """dt-weighted inner product, conjugate-linear in the second argument."""
    u.require_compatible(v)
    return complex(u.dt * np.sum(u.samples * np.conj(v.samples)))


def _require_real(**params: float) -> None:
    """Reject any parameter that is not a real number within the float range;
    bools are rejected too, although Python counts them as ints."""
    for name, x in params.items():
        if isinstance(x, bool) or not (isinstance(x, numbers.Real) and abs(x) <= sys.float_info.max):
            raise InvalidParameterError(f"{name} must be a finite real number, got {x!r}")


def _require_positive(**params: float) -> None:
    """Reject any parameter that is not a positive finite real number."""
    _require_real(**params)
    for name, x in params.items():
        if not x > 0:
            raise InvalidParameterError(f"{name} must be positive, got {x}")


# the largest n the u32 count fields of the SIGB and SUR1 headers can store
_MAX_SAMPLES = 2**32 - 1


def _sample_count(x: float) -> float:
    """x, if it is finite and rounds to an even count within _MAX_SAMPLES."""
    if not x <= _MAX_SAMPLES - 1:
        raise InvalidParameterError(f"{x:.6g} samples: need a finite count <= {_MAX_SAMPLES}")
    return x


def _require_count(name: str, x: int, low: int) -> int:
    """x, if it is an integer (not a bool) from low to _MAX_SAMPLES: counts
    end up as array dimensions, which those u32 header fields must store."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Integral) and low <= x <= _MAX_SAMPLES):
        raise InvalidParameterError(
            f"{name} must be an integer from {low} to {_MAX_SAMPLES}, got {x!r}"
        )
    return x


def _snap(pos: float, tol: float) -> int | None:
    """The integer within tol of pos, or None.  Callers compute pos in Python
    floats, which overflow to inf without a warning, and a position that is
    not finite is refused rather than rounded."""
    if not math.isfinite(pos):
        return None
    k = round(pos)
    return k if abs(pos - k) <= tol else None


def _even_window(n_pulse: int, pad_factor: float) -> int:
    if pad_factor < 2.0:
        raise InvalidParameterError(f"pad_factor must be >= 2, got {pad_factor}")
    n = math.ceil(_sample_count(pad_factor * n_pulse))
    return n + (n % 2)


def _centered_grid(n: int, dt: float) -> tuple[npt.NDArray[np.float64], float]:
    t0 = -(n // 2) * dt
    return t0 + np.arange(n) * dt, t0


def gen_rect(T: float, dt: float, pad_factor: float = 2.0) -> SampledSignal:
    """Unit-energy rectangular pulse of nominal length T, centered in a
    zero-padded window.

    The amplitude is set from the realized support (round(T/dt) samples)
    so the discrete energy is exactly 1 even when T/dt is not an integer.

    Args:
        T: pulse length in seconds, >= dt.
        dt: sample spacing.
        pad_factor: window length as a multiple of the pulse length, >= 2.
    """
    _require_positive(T=T, dt=dt, pad_factor=pad_factor)
    if T < dt:
        raise InvalidParameterError(f"T must be at least dt, got T={T}, dt={dt}")
    n_pulse = round(_sample_count(T / dt))
    n = _even_window(n_pulse, pad_factor)
    _, t0 = _centered_grid(n, dt)
    samples = np.zeros(n, dtype=np.complex128)
    start = n // 2 - n_pulse // 2
    samples[start:start + n_pulse] = 1.0 / math.sqrt(n_pulse * dt)
    return SampledSignal(samples, dt, t0)


def gen_gaussian(sigma: float, dt: float, half_width: float) -> SampledSignal:
    """Unit-energy Gaussian u(t) = (2 pi sigma^2)^(-1/4) exp(-t^2/(4 sigma^2))
    centered at t = 0 on a window [-half_width, half_width).

    |u|^2 integrates to 1 on the real line; the window must satisfy
    half_width >= 4 sigma to keep the truncated tail mass small.  The
    samples are the exact closed-form values (no renormalization), so the
    discrete energy approaches 1 as the window grows; half_width around
    6.5 sigma or more puts the defect below 1e-9.
    """
    _require_positive(sigma=sigma, dt=dt, half_width=half_width)
    if not 0.0 < 2.0 * math.pi * sigma * sigma < math.inf:
        raise InvalidParameterError(f"sigma = {sigma} puts 2 pi sigma^2 outside the float range")
    if half_width < 4.0 * sigma:
        raise TruncationRiskError(
            f"half_width {half_width} is below 4*sigma = {4 * sigma}; "
            "the truncated tails would be significant"
        )
    n = round(_sample_count(2.0 * half_width / dt))
    n += n % 2
    if n < 8:
        raise InvalidParameterError("window too short: fewer than 8 samples")
    t, t0 = _centered_grid(n, dt)
    amp = (2.0 * math.pi * sigma**2) ** -0.25
    samples = amp * np.exp(-(t**2) / (4.0 * sigma**2))
    return SampledSignal(samples.astype(np.complex128), dt, t0)


def canonical_gaussian(dt: float = 1.0 / 64, half_width: float = 4.0) -> SampledSignal:
    """The Fourier-invariant Gaussian 2^(1/4) exp(-pi t^2) on a default grid."""
    return gen_gaussian(CANONICAL_SIGMA, dt, half_width)


def gen_lfm(T: float, rate: float, dt: float, pad_factor: float = 2.0) -> SampledSignal:
    """Unit-energy linear-FM pulse: rectangular envelope times exp(i pi rate t^2),
    chirp_multiply(gen_rect(T, dt, pad_factor), rate), in absolute window time.

    Raises:
        AliasingError: if |rate| * T exceeds the Nyquist band 1/(2 dt).
    """
    _require_positive(T=T, dt=dt, pad_factor=pad_factor)
    _require_real(rate=rate)
    if abs(rate) * T > 1.0 / (2.0 * dt):
        raise AliasingError(
            f"chirp sweep |rate|*T = {abs(rate) * T} exceeds Nyquist {1.0 / (2 * dt)}"
        )
    return chirp_multiply(gen_rect(T, dt, pad_factor), rate)


def gen_subcarrier_set(M: int, T: float, dt: float, pad_factor: float = 2.0) -> list[SampledSignal]:
    """M orthogonal subcarrier pulses u_m(t) = envelope(t) * exp(i 2 pi m t / T).

    All share one grid.  When T/dt is an integer the pulses are exactly
    orthonormal under the dt-weighted inner product (full-period sums of
    roots of unity); m = 0 reproduces gen_rect exactly.

    Raises:
        AliasingError: if the top subcarrier M/T exceeds the Nyquist band.
    """
    _require_count("M", M, 1)
    _require_positive(T=T, dt=dt, pad_factor=pad_factor)
    if M / T > 1.0 / (2.0 * dt):
        raise AliasingError(
            f"subcarrier spacing M/T = {M / T} exceeds Nyquist {1.0 / (2 * dt)}"
        )
    base = gen_rect(T, dt, pad_factor)
    t = base.times
    out = []
    for m in range(M):
        phase = np.exp(1j * 2.0 * math.pi * m * t / T)
        out.append(base.replace_samples(base.samples * phase))
    return out


def _delay_to_lag(v: SampledSignal, tau: float) -> int:
    lag = float(tau) / float(v.dt)
    k = _snap(lag, 1e-9)
    if k is None:
        raise GridAlignmentError(
            f"delay {tau} is {lag} samples; it must be an integer multiple of dt={v.dt}"
        )
    return k


def heisenberg_shift(v: SampledSignal, p: HeisenbergPoint) -> SampledSignal:
    """Apply the time-frequency shift operator T(p) to v.

    output[n] = exp(i 2 pi (p.x3 + p.nu * t_n)) * v[n + p.tau/dt], zero-filled
    where n + p.tau/dt leaves the window.  The delay must be grid-aligned and
    the Doppler must stay inside the Nyquist band.
    """
    k = _delay_to_lag(v, p.tau)
    if abs(p.nu) > 1.0 / (2.0 * v.dt):
        raise AliasingError(f"Doppler {p.nu} exceeds Nyquist {1.0 / (2 * v.dt)}")
    n = v.n
    shifted = np.zeros(n, dtype=np.complex128)
    # output m reads sample m + k for m in [-k, n - k), clamped to the window:
    # a negative stop would wrap, and |k| >= n copies nothing
    lo, hi = (min(max(m, 0), n) for m in (-k, n - k))
    shifted[lo:hi] = v.samples[lo + k : hi + k]
    phase = np.exp(1j * 2.0 * math.pi * (p.x3 + p.nu * v.times))
    return v.replace_samples(phase * shifted)


def _support(u: SampledSignal) -> tuple[int, int] | None:
    """The indices of u's first and last nonzero samples; None if none."""
    nonzero = np.flatnonzero(u.samples)
    return (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else None


def chirp_multiply(v: SampledSignal, rate: float) -> SampledSignal:
    """Multiply by the quadratic phase exp(i pi rate t^2) on the window grid.

    The instantaneous frequency added at time t is rate * t; the check below
    bounds it by the Nyquist band over the occupied part of the window.
    A rate that is not a finite real raises InvalidParameterError.
    """
    _require_real(rate=rate)
    # the times are monotone, so |t| peaks over the support at one of its ends
    support = _support(v)
    t_max = float(np.max(np.abs(v.times[list(support)]))) if support else 0.0
    if abs(rate) * t_max > 1.0 / (2.0 * v.dt):
        raise AliasingError(
            f"chirp slope reaches {abs(rate) * t_max} at the support edge, "
            f"past Nyquist {1.0 / (2 * v.dt)}"
        )
    phase = np.exp(1j * math.pi * rate * v.times**2)
    return v.replace_samples(v.samples * phase)


def _band_occupancy_ok(v: SampledSignal, keep_fraction_below: float) -> bool:
    """True if all but 1e-9 of spectral energy sits below the given band fraction."""
    spec = np.abs(np.fft.fft(v.samples)) ** 2
    freqs = np.abs(np.fft.fftfreq(v.n, d=v.dt))
    total = float(np.sum(spec))
    if total == 0.0:
        return True
    inside = float(np.sum(spec[freqs <= keep_fraction_below / (2.0 * v.dt)]))
    return (total - inside) <= 1e-9 * total


# Kaiser-windowed sinc kernel of dilate: points per output sample, window shape
_DILATE_TAPS = 16
_KAISER_BETA = 8.0


def dilate(v: SampledSignal, b: float) -> SampledSignal:
    """Resample v at b*t on the same grid: output[n] ~= v(b * t_n).

    Band-limited interpolation with a Kaiser-windowed sinc kernel
    (_DILATE_TAPS points per output sample).  Points mapped outside the
    window are zero-filled.  For b > 1 the spectrum expands by b, so the
    signal must occupy at most 1/b of the Nyquist band beforehand.

    Raises:
        AliasingError: if b > 1 and spectral energy above Nyquist/b
            exceeds a 1e-9 fraction.
    """
    _require_positive(b=b)
    if b > 1.0 and not _band_occupancy_ok(v, 1.0 / b):
        raise AliasingError(
            f"dilation by {b} would alias: spectral mass above Nyquist/{b}"
        )
    n = v.n
    half = _DILATE_TAPS // 2
    x = (b * v.times - v.t0) / v.dt  # fractional source index per output sample
    # one row per tap offset: source index m, distance d and weight w
    m = np.floor(x).astype(np.int64) + np.arange(-half + 1, half + 1)[:, None]
    d = x - m
    # Kaiser window evaluated continuously; support |d| <= half
    arg = 1.0 - (d / half) ** 2
    window = np.i0(_KAISER_BETA * np.sqrt(np.clip(arg, 0.0, None)))
    w = np.where(np.abs(d) <= half, np.sinc(d) * window / np.i0(_KAISER_BETA), 0.0)
    terms = v.samples[np.clip(m, 0, n - 1)] * w
    valid = (m >= 0) & (m < n)
    out = np.zeros(n, dtype=np.complex128)
    for term, ok in zip(terms, valid):  # tap by tap, in offset order
        np.add(out, term, out=out, where=ok)
    return v.replace_samples(out)


def fourier(v: SampledSignal) -> SampledSignal:
    """Samples of the Fourier transform integral(v(t) exp(-i 2 pi xi t) dt)
    on the grid xi_m = m / (n dt), m = -n/2 .. n/2 - 1.

    The DFT is corrected by the window phase exp(-i 2 pi xi t0) and scaled
    by dt, making the map unitary on the grid: energies match exactly and
    four applications return the original signal on symmetric windows.
    """
    n = v.n
    if n % 2:
        raise InvalidParameterError("fourier requires an even number of samples")
    dxi = 1.0 / (n * v.dt)
    xi = np.fft.fftshift(np.fft.fftfreq(n, d=v.dt))
    spectrum = np.fft.fftshift(np.fft.fft(v.samples))
    samples = v.dt * np.exp(-1j * 2.0 * math.pi * xi * v.t0) * spectrum
    return SampledSignal(samples, dt=dxi, t0=float(xi[0]))
