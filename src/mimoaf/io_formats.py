"""File formats for signals, surfaces and heatmaps.

Signals travel as SIG1 (plain text, one complex sample per line) or as the
binary twin SIGB; surfaces as the binary SUR1 container or CSV.  All float
text uses 17 significant digits (``%.17g``), which round-trips IEEE doubles
exactly, and the binary layouts are fixed little-endian, so identical
inputs produce byte-identical files.

Each text body is formatted by one ``%`` per run of lines over Python
floats (``.tolist()``), so ``%.17g`` formats each exactly as
``format(x, ".17g")`` does, -0.0 and inf included: a SIG1 body is one
run, and a CSV surface is written one lag row at a time, from a row format
built once per surface with each Doppler value's text folded in, so its
text is never whole in memory.  The readers check the header and the line
count, then parse the body with numpy's C reader (``np.loadtxt``), which
rounds each number exactly as ``float()`` does.

SUR1 layout: magic "SUR1", then little-endian u32 n_tau, u32 n_nu,
f64 tau0, f64 dtau, f64 nu0, f64 dnu, then n_tau*n_nu complex values as
interleaved (re, im) f64 pairs, row-major in lag.  The container stores
axes only; it is also used for spatial (fs, fs') grids.

Every surface file goes through one writer, :func:`write_surface_blocks`,
which takes the surface as blocks of lag rows and feeds each block to the
SUR1 body, the CSV rows and the heatmap's |values| image at once, so a
surface built block by block is never whole in memory.

Each writer's output files form one write group, :func:`_new_files`, which
rewrites every existing file in place: it is opened without truncation, the
new bytes go over the old ones, and the file is cut to its new length once
the bodies of all the group's files are in.  Over an older file of the same
size this spares the kernel freeing the old pages and blocks and allocating
them again: on ext4 (2 vCPU) a 128 MiB rewrite takes 27 ms CPU and 29 ms
wall in place, against 41 ms CPU and 77 ms wall after truncation.  Each
format's marker ("SUR1", "SIGB", the CSV's leading "#", SIG1's "n", PPM's
"P5") is written last, over NUL bytes that hold its place: a failed write
or finish deletes every file of the group, and a run killed part way leaves
files that no reader accepts.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import struct
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import IO

import numpy as np

from .ambiguity import AmbiguitySurface
from .errors import FileFormatError, InvalidParameterError
from .signals import SampledSignal

__all__ = [
    "write_signal",
    "read_signal",
    "write_surface",
    "write_surface_blocks",
    "read_surface",
    "write_surface_csv",
    "read_surface_csv",
    "write_ppm",
]

_SIGB_MAGIC = b"SIGB"
_SUR1_MAGIC = b"SUR1"
_NON_FINITE_HEATMAP = "a heatmap needs finite values; the surface holds nan or inf"


def _f(x: float) -> str:
    return f"{x:.17g}"


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # set the parts, not re + 1j * im, which turns an infinite part into nan
    z = np.empty(re.shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


def _open_in_place(path: str, flags: int) -> int:
    # open's own call without O_TRUNC: the new bytes go over the old pages
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _new_files() -> Iterator[Callable[..., tuple[IO, bytes | str]]]:
    """A write group: yield new(path, mode, marker=b""), which opens path
    for writing over its old bytes and returns the file and the lead to
    write in place of the format's marker.

    A regular file is rewritten in place, which spares the file system
    freeing the old pages and allocating them again.  Its lead is a
    placeholder of NUL bytes.  Once the body is done, each regular file is
    cut to its new length and only then gets its marker, so a run killed
    part way leaves files that no reader accepts.  If the body or any
    finish fails, every regular file of the group is closed and deleted,
    those already finished included.  A device or pipe gets the marker
    itself as lead and is neither cut nor deleted; a path that cannot be
    opened is left alone.
    """
    regular: list[tuple[str | Path, IO, bytes]] = []
    try:
        with contextlib.ExitStack() as files:

            def new(path: str | Path, mode: str, marker: bytes = b"") -> tuple[IO, bytes | str]:
                fh = files.enter_context(open(path, mode, opener=_open_in_place))
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    regular.append((path, fh, marker))
                    lead = bytes(len(marker))
                else:
                    lead = marker
                return fh, lead if "b" in mode else lead.decode("ascii")

            yield new
            for _, fh, marker in regular:
                fh.truncate()
                if marker:
                    os.pwrite(fh.fileno(), marker, 0)
    except BaseException:
        for path, _, _ in regular:
            Path(path).unlink(missing_ok=True)
        raise


def _write_signals(outputs: list[tuple[str | Path, SampledSignal]], binary: bool) -> None:
    """Write each (path, signal) as SIG1 text or, with binary, SIGB, all in
    one write group: if any file fails, every one of them is deleted."""
    with _new_files() as new:
        for path, signal in outputs:
            z = signal.samples
            if binary:
                fh, lead = new(path, "wb", _SIGB_MAGIC)
                fh.write(lead + struct.pack("<Idd", signal.n, signal.dt, signal.t0))
                fh.write(np.ascontiguousarray(z, dtype="<c16"))
            else:
                fh, lead = new(path, "w", b"n")
                # the header, then one line per sample of its (re, im) pair;
                # no header field's text holds a "%"
                head = f"{lead}={signal.n}\ndt={_f(signal.dt)}\nt0={_f(signal.t0)}\n"
                fh.write((head + "%.17g,%.17g\n" * signal.n) % tuple(z.view(np.float64).tolist()))


def write_signal(path: str | Path, signal: SampledSignal, binary: bool = False) -> None:
    """Write a SIG1 text or, with binary, a SIGB signal file."""
    _write_signals([(path, signal)], binary)


def _read_signal_binary(blob: bytes, path: Path) -> SampledSignal:
    header = struct.calcsize("<Idd")
    if len(blob) < 4 + header:
        raise FileFormatError(f"{path}: truncated binary signal")
    n, dt, t0 = struct.unpack_from("<Idd", blob, 4)
    body = len(blob) - (4 + header)
    if body != 16 * n:
        raise FileFormatError(f"{path}: expected {n} samples, found {body // 16}")
    # a view of the file's bytes: SampledSignal makes the one copy
    return SampledSignal(np.frombuffer(blob, "<c16", offset=4 + header), dt, t0)


def read_signal(path: str | Path) -> SampledSignal:
    """Read a SIG1 text or SIGB binary signal file (auto-detected)."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] == _SIGB_MAGIC:
        return _read_signal_binary(blob, path)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: neither SIGB nor text") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 4:
        raise FileFormatError(f"{path}: too short for a SIG1 file")
    header: dict[str, str] = {}
    for ln in lines[:3]:
        key, _, val = ln.partition("=")
        header[key.strip()] = val.strip()
    try:
        n = int(header["n"])
        dt = float(header["dt"])
        t0 = float(header["t0"])
    except (KeyError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad SIG1 header") from exc
    body = lines[3:]
    if len(body) != n:
        raise FileFormatError(f"{path}: header says {n} samples, found {len(body)}")
    try:
        pairs = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad sample line: {exc}") from exc
    if pairs.shape[1] != 2:
        raise FileFormatError(f"{path}: sample lines need 2 fields, found {pairs.shape[1]}")
    return SampledSignal(_complex(pairs[:, 0], pairs[:, 1]), dt, t0)


def _write_heatmap(
    fh: IO[bytes], lead: bytes, mag: np.ndarray, db_floor: float, scaling: str
) -> None:
    """Scale the |values| image in place onto 0 .. 255 and write it as P5,
    with lead in place of the "P5" marker.  An image holding nan or inf has
    no peak to scale by and is refused."""
    peak = float(mag.max())  # nan if any value is nan
    if not math.isfinite(peak):
        raise InvalidParameterError(_NON_FINITE_HEATMAP)
    if peak <= 0.0:
        mag.fill(0.0)
    elif scaling == "linear":
        mag /= peak
    else:
        # 1 - clip(20 log10(mag / peak), db_floor, 0) / db_floor, one step at a time
        mag /= peak
        with np.errstate(divide="ignore"):
            np.log10(mag, out=mag)
        mag *= 20.0
        np.clip(mag, db_floor, 0.0, out=mag)
        mag /= db_floor
        np.subtract(1.0, mag, out=mag)
    mag *= 255.0
    np.round(mag, out=mag)
    h, w = mag.shape
    fh.write(lead + f"\n{w} {h}\n255\n".encode("ascii"))
    fh.write(mag.astype(np.uint8))


def write_surface_blocks(
    blocks: Iterable[tuple[int, np.ndarray]],
    tau_axis: np.ndarray,
    nu_axis: np.ndarray,
    *,
    sur1: str | Path | None = None,
    csv: str | Path | None = None,
    ppm: str | Path | None = None,
    db_floor: float = -60.0,
    scaling: str = "db",
) -> complex:
    """Write the surface given as (first row, block) pairs of consecutive lag
    rows, in one pass, to each output whose path is given: the SUR1 body, the
    CSV rows, and a float64 |values| image that becomes the heatmap once the
    last block is in.  The headers store each axis's first value and step
    axis[1] - axis[0].  A block is used only until the next one arrives.

    Everything is checked and allocated before any file opens, including
    that no two outputs resolve to one file.  The outputs are one write
    group: if any fails part way or at its finish, all of them are deleted.
    Returns the value at the grid point nearest (tau, nu) = (0, 0).
    """
    tau = np.asarray(tau_axis, dtype=np.float64)
    nu = np.asarray(nu_axis, dtype=np.float64)
    paths = [Path(p).resolve() for p in (sur1, csv, ppm) if p]
    if len(set(paths)) < len(paths):
        # the later output would truncate the earlier one's file
        raise InvalidParameterError(
            f"two surface outputs name one file: {', '.join(map(str, paths))}"
        )
    # the headers store a step, which an axis of one point does not have
    least = 2 if sur1 or csv else 1
    if min(tau.size, nu.size) < least:
        raise FileFormatError(
            f"surface axes need at least {least} points, got {tau.size}x{nu.size}"
        )
    if ppm:
        if scaling not in ("db", "linear"):
            raise FileFormatError(f"unknown scaling {scaling!r}")
        if scaling == "db" and not (math.isfinite(db_floor) and db_floor < 0):
            raise FileFormatError(f"db_floor must be negative and finite, got {db_floor}")
        image = np.empty((tau.size, nu.size))
    row0, col0 = int(np.abs(tau).argmin()), int(np.abs(nu).argmin())
    steps = (tau[0], tau[1] - tau[0], nu[0], nu[1] - nu[0]) if sur1 or csv else ()
    with _new_files() as new:
        if sur1:
            sur1_fh, lead = new(sur1, "wb", _SUR1_MAGIC)
            sur1_fh.write(lead + struct.pack("<IIdddd", tau.size, nu.size, *steps))
        if csv:
            csv_fh, lead = new(csv, "w", b"#")
            csv_fh.write("{} n_tau={} n_nu={}\n# tau0={} dtau={} nu0={} dnu={}\ntau,nu,re,im\n"
                         .format(lead, tau.size, nu.size, *map(_f, steps)))
            # a lag row's lines, "tau,nu_j,re,im" for each j, with each nu's
            # text folded in: one % of the row's tau text, re and im per row
            row_format = "".join("%s" + _f(x).replace("%", "%%") + ",%.17g,%.17g\n"
                                 for x in nu.tolist())
            taus = [_f(x) + "," for x in tau.tolist()]
            row_args: list = [None] * (3 * nu.size)
        if ppm:
            ppm_fh, ppm_lead = new(ppm, "wb", b"P5")
        done = 0
        for start, block in blocks:
            stop = start + len(block)
            if start != done or block.shape[1:] != nu.shape:
                raise FileFormatError(f"blocks must be consecutive rows of {nu.size} values")
            if sur1:
                # copies only when the block is strided or not little-endian complex128
                sur1_fh.write(np.ascontiguousarray(block, dtype="<c16"))
            if csv:  # one lag row of text at a time
                for tau_text, row in zip(taus[start:stop], block):
                    row_args[0::3] = [tau_text] * nu.size
                    row_args[1::3] = row.real.tolist()
                    row_args[2::3] = row.imag.tolist()
                    csv_fh.write(row_format % tuple(row_args))
            if ppm:
                np.abs(block, out=image[start:stop])
            if start <= row0 < stop:
                origin = complex(block[row0 - start, col0])
            done = stop
        if done != tau.size:
            raise FileFormatError(f"blocks hold {done} of {tau.size} lag rows")
        if ppm:
            _write_heatmap(ppm_fh, ppm_lead, image, db_floor, scaling)
    return origin


def write_surface(path: str | Path, s: AmbiguitySurface) -> None:
    """Write a surface as a SUR1 file."""
    write_surface_blocks([(0, s.values)], s.tau_axis, s.nu_axis, sur1=path)


def read_surface(path: str | Path) -> AmbiguitySurface:
    """Read a SUR1 file: the values on their delay and Doppler axes."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != _SUR1_MAGIC:
        raise FileFormatError(f"{path}: not a SUR1 file")
    header = struct.calcsize("<IIdddd")
    if len(blob) < 4 + header:
        raise FileFormatError(f"{path}: truncated SUR1 header")
    n_tau, n_nu, tau0, dtau, nu0, dnu = struct.unpack_from("<IIdddd", blob, 4)
    if n_tau < 2 or n_nu < 2:
        raise FileFormatError(f"{path}: SUR1 axes need at least 2 points, got {n_tau}x{n_nu}")
    if len(blob) - (4 + header) != 16 * n_tau * n_nu:
        raise FileFormatError(f"{path}: SUR1 payload size mismatch")
    # the one copy, out of the file's bytes
    values = np.frombuffer(blob, "<c16", offset=4 + header).astype(np.complex128)
    values = values.reshape(n_tau, n_nu)
    tau_axis = tau0 + dtau * np.arange(n_tau)
    nu_axis = nu0 + dnu * np.arange(n_nu)
    return AmbiguitySurface(values, tau_axis, nu_axis)


def write_surface_csv(path: str | Path, s: AmbiguitySurface) -> None:
    """CSV with axis header comments and one `tau,nu,re,im` line per cell,
    written one lag row at a time.  If the write fails, no file is left."""
    write_surface_blocks([(0, s.values)], s.tau_axis, s.nu_axis, csv=path)


def _count_lines(fh: IO[str]) -> int:
    """Lines left in text file fh; a last line without a newline counts."""
    count, last = 0, "\n"
    for chunk in iter(lambda: fh.read(2**20), ""):
        count += chunk.count("\n")
        last = chunk[-1]
    return count + (last != "\n")


def read_surface_csv(path: str | Path) -> AmbiguitySurface:
    """Read a CSV surface: two header comment lines, the column line, then
    exactly n_tau * n_nu `tau,nu,re,im` rows, parsed by numpy's C reader.
    Every row must hold four numbers; blank and comment lines are errors."""
    path = Path(path)
    # a byte that is not UTF-8 becomes U+FFFD, which no number parses as
    with open(path, errors="replace") as fh:
        head = [fh.readline() for _ in range(3)]
        if not head[2] or not head[0].startswith("#") or not head[1].startswith("#"):
            raise FileFormatError(f"{path}: missing CSV surface header")
        meta: dict[str, str] = {}
        for ln in head[:2]:
            for tok in ln.lstrip("#").split():
                key, _, val = tok.partition("=")
                meta[key] = val
        try:
            n_tau = int(meta["n_tau"])
            n_nu = int(meta["n_nu"])
            tau0, dtau = float(meta["tau0"]), float(meta["dtau"])
            nu0, dnu = float(meta["nu0"]), float(meta["dnu"])
        except (KeyError, ValueError) as exc:
            raise FileFormatError(f"{path}: bad CSV surface header") from exc
        if n_tau < 2 or n_nu < 2:
            raise FileFormatError(
                f"{path}: CSV surface axes need at least 2 points, got {n_tau}x{n_nu}"
            )
        # loadtxt skips blank lines, so the rows are counted before it runs
        start = fh.tell()
        rows = _count_lines(fh)
        if rows != n_tau * n_nu:
            raise FileFormatError(f"{path}: expected {n_tau * n_nu} rows, found {rows}")
        fh.seek(start)
        try:
            cells = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad CSV row: {exc}") from exc
    if cells.shape != (rows, 4):
        raise FileFormatError(
            f"{path}: expected {rows} rows of 4 fields, found {cells.shape[0]} of {cells.shape[1]}"
        )
    values = _complex(cells[:, 2], cells[:, 3]).reshape(n_tau, n_nu)
    tau_axis = tau0 + dtau * np.arange(n_tau)
    nu_axis = nu0 + dnu * np.arange(n_nu)
    surface = AmbiguitySurface(values, tau_axis, nu_axis)
    # row p must name the grid point of its row-major place, within 1e-6 of
    # a step as _axis_index snaps, or its value would land in another cell
    place = np.arange(rows)
    with np.errstate(all="ignore"):
        off = np.maximum(np.abs((cells[:, 0] - tau0) / dtau - place // n_nu),
                         np.abs((cells[:, 1] - nu0) / dnu - place % n_nu))
    bad = np.flatnonzero(~(off <= 1e-6))
    if bad.size:
        raise FileFormatError(f"{path}: data row {bad[0] + 1} is not at its grid point (tau, nu)")
    return surface


def write_ppm(
    path: str | Path,
    values: np.ndarray,
    db_floor: float = -60.0,
    scaling: str = "db",
) -> None:
    """8-bit grayscale P5 heatmap of |values| (rows = lag, columns = Doppler).

    "db" maps [db_floor, 0] dB relative to the peak onto [0, 255];
    "linear" maps [0, peak].  A zero surface renders black.  A bad scaling
    or floor, and values that are not a 2-D array of at least one cell or
    hold nan or inf, are refused before the file opens.
    """
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise InvalidParameterError(f"a heatmap needs a 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError(_NON_FINITE_HEATMAP)
    h, w = arr.shape
    write_surface_blocks([(0, arr)], np.arange(h), np.arange(w), ppm=path,
                         db_floor=db_floor, scaling=scaling)

