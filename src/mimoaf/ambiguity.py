"""Cross-ambiguity surfaces, Wigner distributions, and MIMO spatial slices.

The cross-ambiguity of two signals on a common grid is

    chi(u, v)(tau, nu) = dt * sum_n u[n] * conj(v[n + k]) * exp(i 2 pi nu t_n)

with tau = k dt, evaluated on a lag/Doppler grid.  Two lag conventions are
supported: "linear" (zero-filled products over lags -(n-1) .. n-1, the
default) and "cyclic" (mod-n products over lags -n/2 .. n/2-1, which is what
makes Fourier-rotation identities exact on matched grids).

Both the ambiguity surfaces and the Wigner distribution are a Fourier
transform of lag products taken row by row, and one row-block loop
(:class:`_SurfaceBlocks`) streams all of them through one reused block
buffer; a held :class:`AmbiguitySurface` is those blocks copied into one
fresh array (:func:`_whole`).  The Doppler kernel's real weight rides on
the samples, folded in once per surface, so each product is multiplied
straight into its column of the block: for a dt of a power of two that
keeps the bits of weighting the product, and for any other dt it moves
a cell by a last-bit rounding (:class:`_SurfaceBlocks`).  The tests
check them against a brute-force twin computed as a dense matrix product
against the explicit Doppler kernel exp(i 2 pi nu t_n), which shares
nothing past the product array.

On the linear grid a lag row where no nonzero samples of the two signals
overlap is exactly zero, and the loop writes it as +0 without multiplying
or transforming it (:func:`_live_rows`): a radar pulse padded with zeros
to its window has about half its rows so, and of its Wigner time rows.  A
cell with no overlapping samples is +0 on every surface, whatever the FFT
would leave there, and the checks read only live rows (:func:`_row_runs`).

A MIMO array is its waveforms: element m transmits u_m, so the element
count M is len(waveforms), and every MIMO function takes the list and
gamma, the element spacing in carrier wavelengths.  Element m is steered
by exp(i 2 pi gamma fs m) at spatial frequency fs in [0, 1), and integrals
over fs run over [0, 1), exactly for integer gamma.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridAlignmentError, InvalidParameterError
from .signals import SampledSignal, _require_count, _require_energy, _require_positive, _snap, _support

__all__ = [
    "AmbiguitySurface",
    "cross_ambiguity",
    "wigner",
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
    idx = _snap((float(x) - float(axis[0])) / float(axis[1] - axis[0]), 1e-6)
    if idx is None or not 0 <= idx < axis.size:
        raise GridAlignmentError(f"{quantity} {x} is not on the {axis_name} axis")
    return idx


def _require_ascending(tau_axis: np.ndarray, nu_axis: np.ndarray) -> None:
    """Raise InvalidParameterError unless both axes are finite and strictly
    ascending: a grid so far out, or so coarse, that float64 cannot tell its
    points apart has no surface."""
    for name, axis in (("delay", tau_axis), ("Doppler", nu_axis)):
        if not (np.all(np.isfinite(axis)) and np.all(np.diff(axis) > 0)):
            raise InvalidParameterError(f"the {name} axis must be finite and strictly ascending")


@dataclass(frozen=True, eq=False)
class AmbiguitySurface:
    """Values of a function on the delay-Doppler plane, sampled on its axes.

    The sample grid of the signals behind a surface is not part of it: code
    that needs their dt or t0 reads them from the signals.

    Attributes:
        values: complex array indexed [lag, doppler].
        tau_axis: delays in seconds, ascending, uniform.
        nu_axis: Doppler frequencies in Hz, ascending, uniform.

    A Wigner distribution is one too: its rows are times and its columns
    frequencies, so tau_axis holds the times and nu_axis the frequencies.
    """

    values: npt.NDArray[np.complex128]
    tau_axis: npt.NDArray[np.float64]
    nu_axis: npt.NDArray[np.float64]

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
        _require_ascending(tau, nu)
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "tau_axis", _freeze(tau))
        object.__setattr__(self, "nu_axis", _freeze(nu))

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
        """Quadrature of |values|^2 over the whole surface, by the streamed
        checks' rule (:func:`_integral`), so to their bit."""
        return _integral(self, [_squared_rows(self.values.copy())]).real


# The surface is built in blocks of lag rows holding about this many bytes of
# output, so a streamed surface needs one block of memory at any size.  The
# paired checks ran faster at each halving down to 512 KiB; at 256 KiB a
# 4096-bin surface's 8-row blocks slowed `af`.
_BLOCK_BYTES = 2**19


@functools.cache
def _inside_windows(n: int) -> np.ndarray:
    """Row i is True where a sample moved by lag i - (n-1) stays inside the
    n samples: one read-only table per n, as :func:`_unit_roots`."""
    return sliding_window_view(_freeze(np.pad(np.ones(n, dtype=bool), n - 1)), n)


def _lag_rows(
    v: SampledSignal, cyclic: bool, rows: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The lags the slice rows picks from the full list, with the same rows
    of the windows of conj(v) and of their mask: the lag products of u
    against v are P[i, n] = u[n] * windows[i, n] where mask[i, n] holds,
    and +0 elsewhere (no mask: everywhere).  The rows are one slice of the
    windows below, so a pick copies nothing.

    A cell with no overlapping samples, past a signal's end on the linear
    grid, is outside the mask.  The block loop extends that to whole rows:
    it multiplies only the live rows (:func:`_live_rows`) and writes the
    others as +0."""
    n = v.n
    if cyclic:
        if n % 2:
            raise InvalidParameterError("cyclic lags require an even sample count")
        h = n // 2
        cv = np.conj(v.samples)
        # window i of conj(v), wrapped by n/2 before it and n/2 - 1 after, is
        # row i of n: conj(v) rolled by the lag i - n/2
        windows = sliding_window_view(np.concatenate([cv[h:], cv, cv[: h - 1]]), n)
        return np.arange(-h, h)[rows], windows[rows], None
    # window i of conj(v), zero-padded by n-1 on each side, is row i at lag
    # i - (n-1); the mask leaves cells past the signal's ends at +0, where a
    # plain product would write u * 0 and so sometimes -0
    padded = np.zeros(3 * n - 2, dtype=np.complex128)
    np.conjugate(v.samples, out=padded[n - 1 : 2 * n - 1])
    windows = sliding_window_view(padded, n)
    return np.arange(-(n - 1), n)[rows], windows[rows], _inside_windows(n)[rows]


def _doppler_axis(n_doppler: int, dt: float) -> np.ndarray:
    return np.fft.fftshift(np.fft.fftfreq(n_doppler, d=dt))


@functools.cache
def _unit_roots(n: int) -> np.ndarray:
    """exp(i 2 pi m / n) for m = 0 .. n-1, each from an angle of at most pi/4.
    One read-only table per n, built once and shared by every caller.

    The one source of the grid phase exp(+-i 2 pi tau nu): on every surface
    :func:`cross_ambiguity` builds, linear or cyclic, lag k and Doppler bin
    j of N satisfy tau_k nu_j = k (j - N/2) / N whatever dt is.

    4m = q n + r splits the angle into q quarter turns and (pi/2) r/n; a
    remainder past n/2 is folded to its complement (pi/2) (n - r)/n, which
    swaps cosine and sine.  The fold and the quarter turns only swap and
    negate parts, which is exact.
    """
    q, r = np.divmod(4 * np.arange(n), n)
    fold = 2 * r > n
    phi = (0.5 * math.pi) * (np.where(fold, n - r, r) / n)
    c, s = np.cos(phi), np.sin(phi)
    re, im = np.where(fold, s, c), np.where(fold, c, s)
    out = np.empty(n, dtype=np.complex128)
    out.real = np.choose(q, (re, -im, -re, im))
    out.imag = np.choose(q, (im, re, -im, -re))
    return _freeze(out)


def _check_bins(name: str, count: int | None, n: int, default: int) -> int:
    """The bin count of a surface of n samples, default if None: an even
    integer >= n, with n >= 2."""
    if n < 2:
        raise InvalidParameterError(f"a surface needs at least 2 samples, got {n}")
    if count is None:
        count = default
    if _require_count(name, count, n) % 2:
        raise InvalidParameterError(f"{name} must be an even integer >= {n}, got {count}")
    return count


def _check_doppler_count(n_doppler: int | None, n: int, cyclic: bool) -> int:
    """The Doppler bins of an ambiguity surface, n (cyclic) or 4n by default."""
    return _check_bins("n_doppler", n_doppler, n, n if cyclic else 4 * n)


def _window_shift(u: SampledSignal) -> tuple[int, float]:
    """t0/dt split into its nearest whole number s and the fraction t0/dt - s.

    On the grid of u, the window phase exp(i 2 pi nu t0) at Doppler bin j of
    N is exp(i 2 pi (j - N/2) (s + f) / N): the whole part s is a circular
    shift of a Doppler transform's input by s columns, which is exact, and
    only the fraction f leaves a phase to compute.  A t0/dt that is not
    finite raises InvalidParameterError.
    """
    x = u.t0 / u.dt
    if not math.isfinite(x):
        raise InvalidParameterError(
            f"window start t0/dt = {u.t0}/{u.dt} is not a finite number of samples"
        )
    s = round(x)
    return s, x - s


# One signal pair's lag products in a loop: rows i of left[i, m] *
# right[i, m] where inside(rows)[i, m] holds, +0 elsewhere (inside None:
# everywhere); left carries the loop's real weights.
_Term = tuple[np.ndarray, np.ndarray, Callable[[slice], np.ndarray] | None]


def _scaled(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A copy of x with sample m times the real weights[m], on both float
    parts: exact for weights of a power of two, and no zero part changes
    sign, as a multiply by weights[m] + 0j could make it."""
    out = np.array(x, dtype=np.complex128)
    parts = out.view(np.float64).reshape(-1, 2)
    parts *= weights[:, None]
    return out


def _multiply(term: _Term, rows: slice, out: np.ndarray, runs: list[tuple[slice, slice]]) -> None:
    """Write the term's products at rows, columns p, into out's columns c
    for each run (p, c); a cell outside its mask is left as it was."""
    left, right, inside = term
    mask = None if inside is None else inside(rows)
    for p, c in runs:
        where = True if mask is None else mask[:, p]
        if where is not True and where.size == 1:
            # numpy rounds a one-cell complex multiply under an array mask
            # unlike a longer one, and unlike one under a plain bool
            where = bool(where)
        np.multiply(left[rows, p], right[rows, p], out=out[:, c], where=where)


class _SurfaceBlocks:
    """The one row-block loop behind every FFT surface.

    Each row of the surface is the Doppler transform of n lag products,
    summed over the loop's terms (one per signal pair, :data:`_Term`); a
    block still needs one FFT.  A block of one reused block buffer,
    ``values``, is zero-filled, one term's products are multiplied under
    its mask straight into their columns of the live rows, and one
    unscaled inverse FFT runs in place, so a block holds only until the
    next.  Further terms share the first's mask (their pairs share n and
    the rows): the first term's products are formed unmasked in a total
    block and each further term's in one scratch block, added to the total
    in list order, and the total is copied into the live rows under the
    mask once, so a cell outside it stays +0.  :func:`_ambiguity_blocks`
    and :func:`_wigner_blocks` work out the terms and the geometry.

    Only the live rows live[0] .. live[1]-1 are multiplied and transformed;
    every other row of a block is written as +0, the value of a row whose
    products are all zero.  A row's bits do not depend on its neighbours,
    so the live rows are those of a loop that transforms every row, and the
    dead ones are +0 where the FFT of signed zeros could leave -0 (how often
    depends on how pocketfft factors N).  Cyclic surfaces pass every row as
    live.

    Construction checks the axes as :class:`AmbiguitySurface` does, then
    allocates the buffers, so bad axes or an allocation too large fail
    before anything is computed or written.  ``fill(start, stop)`` writes
    rows start .. stop-1, at most one block, into the block buffer and
    returns them, until the next fill overwrites them; iterating yields
    (first row, block) over every row, for a surface written or held, and a
    check fills only its live hull (:func:`_row_runs`).  ``tau_axis``
    labels the rows (delays, or the times of a Wigner distribution), one
    per row, and ``nu_axis`` the columns.  A reversed row slice
    (:func:`_lag_rows`) runs the delays descending.

    With the window (s, f), column j of N and product m, the kernel
    weight exp(i 2 pi (j - N/2) (m + s + f) / N) is
    weight (-1)^(m+s) exp(i 2 pi j (m+s) / N) exp(i 2 pi (j - N/2) f / N).
    So product m, whose left factor already carries the real weight
    (-1)^(m+s) times the scale, goes into column (m+s) mod N, at most two
    contiguous runs (N >= n), the other columns stay zero, and the unscaled
    inverse FFT is the whole transform: the centred axis, the weight and
    the shift s are all exact before it.  Only f != 0 leaves the residual
    row exp(i 2 pi (j - N/2) f / N) to multiply.  pocketfft transforms each
    row on its own and the sums are per cell, so the block size does not
    change a bit of the result.  For a scale of a power of two, the weight
    on a sample times the other factor rounds to the bits of the product
    times the weight; for any other scale the product is rounded as
    (scale u) conj(v), a last-bit difference from (u conj(v)) scale.
    """

    def __init__(
        self,
        terms: list[_Term],
        n: int,
        tau_axis: np.ndarray,
        nu_axis: np.ndarray,
        window: tuple[int, float],
        live: tuple[int, int],
    ) -> None:
        _require_ascending(tau_axis if tau_axis[0] <= tau_axis[-1] else tau_axis[::-1], nu_axis)
        shift, frac = window
        self._terms = terms
        self._live = live
        self.tau_axis = tau_axis
        self.nu_axis = nu_axis
        self.n_doppler = N = nu_axis.size
        # product m goes to column (m + s) mod N: products 0 .. head-1 to
        # columns c .. c+head-1, the rest (if any) to 0 .. n-head-1
        c = shift % N
        head = min(n, N - c)
        self._runs = [(slice(0, head), slice(c, c + head))]
        if head < n:
            self._runs.append((slice(head, n), slice(0, n - head)))
        self._residual = None if frac == 0.0 else np.exp(
            (1j * 2.0 * math.pi * frac / N) * (np.arange(N) - N // 2)
        )
        n_lag = tau_axis.size
        self._rows = min(n_lag, max(1, _BLOCK_BYTES // (16 * N)))
        # a trace's total and scratch blocks of lag products
        self._sums = np.empty((2, self._rows, n), dtype=np.complex128) if len(terms) > 1 else None
        self.values = np.empty((self._rows, N), dtype=np.complex128)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        n_lag = self.tau_axis.size
        for start in range(0, n_lag, self._rows):
            yield start, self.fill(start, min(start + self._rows, n_lag))

    def fill(self, start: int, stop: int) -> np.ndarray:
        block = self.values[: stop - start]
        block.fill(0)
        # the block's live rows are lo .. hi-1 of it; the rest stay +0
        lo, hi = (min(max(r - start, 0), stop - start) for r in self._live)
        if lo < hi:
            live, rows = block[lo:hi], slice(start + lo, start + hi)
            if self._sums is None:
                _multiply(self._terms[0], rows, live, self._runs)
            else:
                self._place_sum(rows, live)
            np.fft.ifft(live, axis=1, out=live, norm="forward")
            if self._residual is not None:
                live *= self._residual
        return block

    def _place_sum(self, rows: slice, live: np.ndarray) -> None:
        """Write the terms' lag products at rows, summed in list order, into
        their columns of live, as the class docstring says.  The placement
        is an exact copy, so no cell is multiplied alone under a mask (see
        :func:`_multiply`)."""
        (left, right, inside), *rest = self._terms
        total, more = self._sums[:, : len(live)]
        np.multiply(left[rows], right[rows], out=total)
        for left, right, _ in rest:
            np.multiply(left[rows], right[rows], out=more)
            total += more
        mask = None if inside is None else inside(rows)
        for p, c in self._runs:
            np.copyto(live[:, c], total[:, p], where=True if mask is None else mask[:, p])


def _live_rows(
    pairs: list[tuple[SampledSignal, SampledSignal]], lags: np.ndarray
) -> tuple[int, int]:
    """The rows r0 .. r1-1 of the linear lags (those of a pick, in its
    order) from the first to the last where some pair's nonzero samples
    overlap; (0, 0) if there is none.

    With the nonzero samples of u in [a_u, b_u] and of v in [a_v, b_v],
    lag k can hold a nonzero product u[n] conj(v[n + k]) only when
    a_v - b_u <= k <= b_v - a_u; a sum of pairs takes the hull of its
    pairs' ranges.  The lags of any pick are monotone, so the rows in that
    range are one contiguous run.
    """
    support = {id(w): _support(w) for pair in pairs for w in pair}
    low, high = math.inf, -math.inf
    for u, v in pairs:
        su, sv = support[id(u)], support[id(v)]
        if su and sv:
            low, high = min(low, sv[0] - su[1]), max(high, sv[1] - su[0])
    live = np.flatnonzero((lags >= low) & (lags <= high))
    return (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)


def _ambiguity_blocks(
    pairs: list[tuple[SampledSignal, SampledSignal]],
    n_doppler: int | None,
    *,
    cyclic: bool = False,
    rows: slice = slice(None),
) -> _SurfaceBlocks:
    """The blocks of sum_i chi(u_i, v_i) over a list of signal pairs: one
    pair gives chi(u, v), and the pairs (u_m, u_m) give the MIMO trace.
    rows picks lag rows (:func:`_lag_rows`), each with the bits of the same
    row of the whole surface.

    chi is linear in its lag products, so the sum is the Doppler transform
    of the summed products.  With t0/dt = s + f (:func:`_window_shift`),
    Doppler bin j of N and sample m, the kernel dt exp(i 2 pi nu_j t_m) is
    the block loop's at the window (s, f) with weight dt; the generators'
    windows have f = 0.  Every size, the window start and the signals'
    energies are checked here, before any block is built.
    """
    u = pairs[0][0]
    for a, b in pairs:
        u.require_compatible(a)
        a.require_compatible(b)
    n_doppler = _check_doppler_count(n_doppler, u.n, cyclic)
    window = _window_shift(u)
    # the real weight dt (-1)^(m+s) of product m rides on u[m]
    weights = np.where((np.arange(u.n) + window[0] % 2) % 2, -u.dt, u.dt)
    terms = []
    for a, b in pairs:
        lags, windows, inside = _lag_rows(b, cyclic, rows)
        left = np.broadcast_to(_scaled(a.samples, weights), windows.shape)
        terms.append((left, windows, None if inside is None else inside.__getitem__))
    blocks = _SurfaceBlocks(
        terms, u.n, lags * u.dt, _doppler_axis(n_doppler, u.dt),
        window, (0, lags.size) if cyclic else _live_rows(pairs, lags),
    )
    # each distinct signal once: a self pair's two sides are one object
    _require_energy({id(w): w for pair in pairs for w in pair}.values())
    return blocks


def _squared_rows(block: np.ndarray) -> np.ndarray:
    """The sum of |block|^2 along each row, squaring block's float view in
    place."""
    f = block.view(np.float64)
    return np.square(f, out=f).sum(axis=1)


def _fsum(part: np.ndarray) -> float:
    """The total of part rounded once, by math.fsum."""
    try:
        return math.fsum(part)
    except (OverflowError, ValueError):
        # a total past the float range, or inf - inf: numpy's sum is inf or
        # nan there, which fails a check instead of raising
        return float(part.sum())


def _integral(blocks: _SurfaceBlocks | AmbiguitySurface, row_sums: Iterable[np.ndarray]) -> complex:
    """Quadrature, total times d_tau d_nu, of a function of the cells of
    the surface that blocks streams or holds, from its sums along each row.

    numpy sums each row pairwise, on its own, and math.fsum rounds the total
    of the rows once, so the result does not depend on how many rows a
    block holds.  No block at all (an empty hull) gives 0, as zeros do."""
    sums = np.concatenate([np.zeros(0), *row_sums])
    tau, nu = blocks.tau_axis, blocks.nu_axis
    d_tau, d_nu = float(tau[1] - tau[0]), float(nu[1] - nu[0])
    return complex(_fsum(sums.real) * d_tau * d_nu, _fsum(sums.imag) * d_tau * d_nu)


def _live_hull(loops: Iterable[_SurfaceBlocks]) -> tuple[int, int]:
    """The hull of the loops' non-empty live runs, (0, 0) if all are empty:
    a loop of an all-zero signal does not pull the hull to row 0."""
    runs = [loop._live for loop in loops if loop._live[0] < loop._live[1]]
    return (min(r[0] for r in runs), max(r[1] for r in runs)) if runs else (0, 0)


def _row_runs(*loops: _SurfaceBlocks) -> Iterator[tuple[int, list[np.ndarray]]]:
    """(first row, the same rows of each loop's surface) for loops of one
    row count, in runs of at most the smallest block.  Each run fills each
    distinct loop once: a loop given twice hands its rows out twice, so a
    caller that writes into one must not read the other.  Only the rows of
    the loops' live hull run, numbered as on the whole surface; inside it a
    row dead in one loop is +0 there.  Every row outside is +0 in every loop
    and adds exactly 0 to each reducer the checks use: a row sum,
    math.fsum, a maximum of |.|."""
    distinct = list(dict.fromkeys(loops))
    first, end = _live_hull(distinct)
    rows = min(loop._rows for loop in distinct)
    for start in range(first, end, rows):
        filled = {loop: loop.fill(start, min(start + rows, end)) for loop in distinct}
        yield start, [filled[loop] for loop in loops]


def _energy(blocks: _SurfaceBlocks) -> float:
    """Quadrature of |values|^2 over the surface a loop streams, one block of
    its live run (:func:`_row_runs`) at a time, squared in place."""
    return _integral(blocks, (_squared_rows(block) for _, (block,) in _row_runs(blocks))).real


def _whole(blocks: _SurfaceBlocks) -> AmbiguitySurface:
    """The surface a block loop streams, each block copied into one fresh
    array: a row's bits do not depend on where it is transformed."""
    values = np.empty((blocks.tau_axis.size, blocks.n_doppler), dtype=np.complex128)
    for start, block in blocks:
        values[start : start + len(block)] = block
    return AmbiguitySurface(values, blocks.tau_axis, blocks.nu_axis)


def _surface(
    pairs: list[tuple[SampledSignal, SampledSignal]], n_doppler: int | None, cyclic: bool = False
) -> AmbiguitySurface:
    """sum_i chi(u_i, v_i) over the pairs, held whole in memory."""
    return _whole(_ambiguity_blocks(pairs, n_doppler, cyclic=cyclic))


def cross_ambiguity(
    u: SampledSignal,
    v: SampledSignal | None = None,
    n_doppler: int | None = None,
    cyclic: bool = False,
) -> AmbiguitySurface:
    """Cross-ambiguity surface of u against v (v = u gives the auto surface).

    The Doppler transform runs as one unscaled inverse FFT over the sample
    index, its input circularly shifted by the whole part of t0/dt, so the
    result matches the absolute-time definition with no pass after the FFT
    unless t0/dt has a fractional part.

    The surface is allocated once and the block loop's blocks of lag rows
    copied into it (see :class:`_SurfaceBlocks`).  Besides the surface,
    only one block is alive: the lag products are multiplied straight into
    it, never all (2n-1) x n of them held.  On the linear grid only the
    lags where the nonzero samples of u and v overlap are transformed;
    every other row is +0 (see :func:`_live_rows`).

    Args:
        u, v: signals on a common grid.
        n_doppler: Doppler bins; defaults to 4n (linear) or n (cyclic).
        cyclic: use mod-n lag products on lags -n/2 .. n/2-1.
    """
    return _surface([(u, u if v is None else v)], n_doppler, cyclic)


def _wigner_blocks(u: SampledSignal, v: SampledSignal | None, n_freq: int | None) -> _SurfaceBlocks:
    """The blocks of the Wigner distribution of u against v (v = u if None).

    Row t holds the products r(m) = u[t+m] conj(v[t-m]), |m| <= min(t, n-1-t),
    at index q = h - m, h = (n-1)//2, among n; the cells past that diamond
    stay +0.  Bin l of N needs sum_m r(m) exp(-i 2 pi (l - N/2) m / N), that
    is sum_q P(q) exp(i 2 pi (l - N/2) (q - h) / N): the block loop's kernel
    at the window (-h, 0) with weight 2 dt.  With the nonzero samples of u
    in [a_u, b_u] and of v in [a_v, b_v], only rows a_u + a_v <= 2t <=
    b_u + b_v can hold a nonzero product; the others are written as +0.
    """
    if v is None:
        v = u
    u.require_compatible(v)
    n = u.n
    n_freq = _check_bins("n_freq", n_freq, n, 2 * n)
    h = (n - 1) // 2

    def windows(x: np.ndarray) -> np.ndarray:
        # n windows of n: window i reads x[i + q - h], zero past its ends
        return sliding_window_view(np.pad(x, (h, n - 1 - h)), n)

    # row t holds u[i] conj(v[j]) at q, i = t + h - q from u reversed and
    # j = t - h + q; a cell is inside the diamond where neither reads
    # padding.  The loop's weight 2 dt (-1)^(q - h) rides on the samples:
    # i - j = 2 (h - q), so (-1)^(q - h) = (-1)^(i//2 + j//2), and u[i]
    # carries 2 dt (-1)^(i//2) and conj(v[j]) carries (-1)^(j//2)
    signs = np.where(np.arange(n) // 2 % 2, -1.0, 1.0)
    us = windows(_scaled(u.samples, 2.0 * u.dt * signs)[::-1])[::-1]
    cv = windows(_scaled(np.conj(v.samples), signs))
    inside = windows(np.ones(n, dtype=bool))

    def diamond(rows: slice) -> np.ndarray:
        return inside[::-1][rows] & inside[rows]

    su, sv = _support(u), _support(v)
    live = ((su[0] + sv[0] + 1) // 2, (su[1] + sv[1]) // 2 + 1) if su and sv else (0, 0)
    blocks = _SurfaceBlocks(
        [(us, cv, diamond)], n, u.times, _doppler_axis(n_freq, 2.0 * u.dt), (-h, 0.0), live
    )
    _require_energy([u, v])
    return blocks


def wigner(
    u: SampledSignal, v: SampledSignal | None = None, n_freq: int | None = None
) -> AmbiguitySurface:
    """Wigner (cross-)distribution via even-lag products:

        W[n, l] = 2 dt * sum_m u[n+m] conj(v[n-m]) exp(-i 2 pi l m / n_freq)

    sampled at f_l = l / (2 dt n_freq), covering half the Nyquist band.
    Keep signals inside that band (the generators' default padding does).
    It is built by the same row-block loop as every ambiguity surface, and
    returned as a surface whose rows are the times of u (tau_axis) and whose
    columns are the frequencies (nu_axis).  For a single signal it is real
    up to rounding, and its frequency sum recovers |u|^2 exactly.
    """
    return _whole(_wigner_blocks(u, v, n_freq))


def _require_array(waveforms: list[SampledSignal], gamma: float) -> None:
    """The gate of every MIMO function: a positive gamma, at least one
    waveform, all on one grid, and steering phases float64 can hold."""
    _require_positive(gamma=gamma)
    if not waveforms:
        raise InvalidParameterError("an array needs at least one waveform")
    for w in waveforms[1:]:
        waveforms[0].require_compatible(w)
    M = len(waveforms)
    # every steering phase 2 pi gamma fs m, fs < 1, is below this bound
    if not math.isfinite(2.0 * math.pi * gamma * max(M - 1, 1)):
        raise InvalidParameterError(f"steering phases overflow at gamma = {gamma}, M = {M}")


def _steering_phases(gamma: float, fs: float, M: int) -> npt.NDArray[np.complex128]:
    """exp(i 2 pi gamma fs m), m = 0 .. M-1."""
    if not 0.0 <= fs < 1.0:
        raise InvalidParameterError(f"spatial frequency must lie in [0, 1), got {fs}")
    return np.exp(1j * 2.0 * math.pi * gamma * fs * np.arange(M))


def mimo_beams(
    waveforms: list[SampledSignal], gamma: float, fs: float, fs_prime: float
) -> tuple[SampledSignal, SampledSignal]:
    """The beamformed pair U = sum_m exp(i 2 pi gamma fs m) u_m and V, the
    same at fs'."""
    _require_array(waveforms, gamma)

    def beam(f: float) -> SampledSignal:
        phases = _steering_phases(gamma, f, len(waveforms))
        return waveforms[0].replace_samples(
            sum(c * w.samples for c, w in zip(phases, waveforms))
        )

    return beam(fs), beam(fs_prime)


def mimo_ambiguity(
    waveforms: list[SampledSignal],
    gamma: float,
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
    return cross_ambiguity(*mimo_beams(waveforms, gamma, fs, fs_prime), n_doppler=n_doppler)


def mimo_slice_spatial(
    waveforms: list[SampledSignal],
    gamma: float,
    tau: float,
    nu: float,
    n_spatial: int,
    n_doppler: int | None = None,
) -> npt.NDArray[np.complex128]:
    """All K x K spatial slices at one delay-Doppler point, K = n_spatial >
    gamma (M-1): V = Z X Z^H with Z[a, m] = exp(i 2 pi gamma m a/K) and
    X[m, p] = chi(u_m, u_p)(tau, nu).

    tau and nu must land on the lag and Doppler axes of the surfaces
    cross_ambiguity would build with n_doppler bins; X is then summed
    directly at that grid point, dt sum_n u_m[n] conj(u_p[n+k]) exp(i 2 pi nu t_n),
    in O(M^2 n) with no FFT.
    """
    _require_array(waveforms, gamma)
    _require_count("n_spatial", n_spatial, 2)
    M = len(waveforms)
    if n_spatial <= gamma * (M - 1):
        raise InvalidParameterError(
            f"n_spatial = {n_spatial} cannot resolve steering frequencies up "
            f"to gamma*(M-1) = {gamma * (M - 1)}"
        )
    first = waveforms[0]
    # the phase nu t_n below overflows where t0/dt does
    _window_shift(first)
    n = first.n
    n_doppler = _check_doppler_count(n_doppler, n, cyclic=False)
    lags = np.arange(-(n - 1), n)
    nu_axis = _doppler_axis(n_doppler, first.dt)
    k = int(lags[_axis_index(lags * first.dt, tau, "delay", "lag")])
    nu = float(nu_axis[_axis_index(nu_axis, nu, "Doppler", "Doppler")])
    _require_energy(waveforms)
    U = np.stack([w.samples for w in waveforms])
    phase = np.exp(1j * 2.0 * math.pi * nu * first.times)
    # the samples n in [lo, hi) whose partner n + k is in the window
    lo, hi = max(-k, 0), min(n - k, n)
    X = (U[:, lo:hi] * phase[lo:hi]) @ U[:, lo + k : hi + k].conj().T
    X *= first.dt
    fs_grid = np.arange(n_spatial) / n_spatial
    Z = np.exp(1j * 2.0 * math.pi * gamma * np.outer(fs_grid, np.arange(M)))
    return Z @ X @ Z.conj().T


def _trace_pairs(
    waveforms: list[SampledSignal], gamma: float
) -> list[tuple[SampledSignal, SampledSignal]]:
    """The self pairs (u_m, u_m) whose surfaces sum to the spatial integral,
    once the array and its whole-wavelength spacing are checked."""
    _require_array(waveforms, gamma)
    if _snap(gamma, 1e-12) is None:
        raise InvalidParameterError(f"this identity needs an integer spacing gamma, got {gamma}")
    return [(w, w) for w in waveforms]


def spatial_integral(
    waveforms: list[SampledSignal],
    gamma: float,
    n_doppler: int | None = None,
) -> AmbiguitySurface:
    """Integral of the co-steered slice over fs in [0, 1), which is exactly
    the trace sum_m chi(u_m, u_m) for an integer gamma.

    The identity holds because the steering phases of a whole-wavelength
    array are orthonormal over fs in [0, 1), so the M^2 - M cross terms
    integrate to zero; the trace is built from the M self pairs alone.
    chi is linear in its lag products, so the trace is one Doppler
    transform of the summed products sum_m u_m[n] conj(u_m[n + k]): one FFT
    surface, not M (see :class:`_SurfaceBlocks`).  Besides the trace, one
    block and a total and a scratch block of lag products are alive,
    whatever M is.
    """
    return _surface(_trace_pairs(waveforms, gamma), n_doppler)


def mimo_energy_quadrature(
    waveforms: list[SampledSignal],
    gamma: float,
    n_doppler: int | None = None,
) -> float:
    """Four-fold energy of the spatial slices,

        integral over fs, fs' in [0, 1) of integral |slice(fs, fs')|^2 dtau dnu,

    as the running sum of the M^2 pair-surface energies
    integral |chi(u_m, u_p)|^2 over every ordered pair.  Each pair surface
    is streamed through the block loop and squared block by block, so one
    block is alive at a time, never a whole surface.  Exact for integer
    gamma: the steering phases are orthonormal over fs in [0, 1), the same
    fact spatial_integral uses, so every term that pairs two different
    (m, p) integrates to zero.
    """
    _trace_pairs(waveforms, gamma)
    return sum(
        _energy(_ambiguity_blocks([(u, v)], n_doppler))
        for u in waveforms
        for v in waveforms
    )
