"""File formats for signals, surfaces, heatmaps, and check reports.

Signals travel as SIG1 (plain text, one complex sample per line) or as the
binary twin SIGB; surfaces as the binary SUR1 container or CSV.  All float
text uses 17 significant digits (``%.17g``), which round-trips IEEE doubles
exactly, and the binary layouts are fixed little-endian, so identical
inputs produce byte-identical files.

The text bodies are formatted by one ``%`` map over columns of Python
floats, and a CSV surface is written one lag row at a time, so its text is
never whole in memory.  The readers check the header and the line count,
then parse the body with numpy's C reader (``np.loadtxt``), which rounds
each number exactly as ``float()`` does.

SUR1 layout: magic "SUR1", then little-endian u32 n_tau, u32 n_nu,
f64 tau0, f64 dtau, f64 nu0, f64 dnu, then n_tau*n_nu complex values as
interleaved (re, im) f64 pairs, row-major in lag.  The container stores
axes only; it is also used for spatial (fs, fs') grids.  A cross-ambiguity
surface or a MIMO trace can go to SUR1 one block of lag rows at a time
(:func:`write_surface_stream`), never whole in memory.
"""

from __future__ import annotations

import contextlib
import math
import struct
from collections.abc import Iterator
from itertools import repeat
from pathlib import Path
from typing import IO

import numpy as np

from .ambiguity import AmbiguitySurface, _SurfaceBlocks
from .errors import FileFormatError
from .properties import CheckReport
from .signals import SampledSignal

__all__ = [
    "write_signal",
    "read_signal",
    "write_surface",
    "write_surface_stream",
    "read_surface",
    "write_surface_csv",
    "read_surface_csv",
    "write_ppm",
    "write_report",
]

_SIGB_MAGIC = b"SIGB"
_SUR1_MAGIC = b"SUR1"


def _f(x: float) -> str:
    return f"{x:.17g}"


def _text_lines(fmt: str, *columns) -> str:
    """fmt % (c0[i], c1[i], ...) for each i, joined.  Give float columns as
    Python floats (``.tolist()``): ``%.17g`` then formats them exactly as
    ``format(x, ".17g")`` does, -0.0 and inf included."""
    return "".join(map(fmt.__mod__, zip(*columns)))


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # set the parts, not re + 1j * im, which turns an infinite part into nan
    z = np.empty(re.shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


@contextlib.contextmanager
def _new_file(path: str | Path, mode: str) -> Iterator[IO]:
    """Open path for writing; if the write fails, delete the partial file.

    The file is opened outside the cleanup: a path that cannot be opened is
    left alone, and so is a device or pipe given as path."""
    fh = open(path, mode)
    try:
        with fh:
            yield fh
    except BaseException:
        if Path(path).is_file():
            Path(path).unlink()
        raise


def write_signal(path: str | Path, signal: SampledSignal, binary: bool = False) -> None:
    path = Path(path)
    if binary:
        blob = bytearray(_SIGB_MAGIC)
        blob += struct.pack("<I", signal.n)
        blob += struct.pack("<dd", signal.dt, signal.t0)
        blob += signal.samples.astype("<c16").tobytes()
        path.write_bytes(bytes(blob))
        return
    z = signal.samples
    path.write_text(
        f"n={signal.n}\ndt={_f(signal.dt)}\nt0={_f(signal.t0)}\n"
        + _text_lines("%.17g,%.17g\n", z.real.tolist(), z.imag.tolist())
    )


def _read_signal_binary(blob: bytes, path: Path) -> SampledSignal:
    header = struct.calcsize("<Idd")
    if len(blob) < 4 + header:
        raise FileFormatError(f"{path}: truncated binary signal")
    n, dt, t0 = struct.unpack_from("<Idd", blob, 4)
    body = blob[4 + header:]
    if len(body) != 16 * n:
        raise FileFormatError(f"{path}: expected {n} samples, found {len(body) // 16}")
    samples = np.frombuffer(body, dtype="<c16").astype(np.complex128)
    return SampledSignal(samples, dt, t0)


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


def _sur1_header(
    shape: tuple[int, int], tau0: float, dtau: float, nu0: float, dnu: float
) -> bytes:
    return _SUR1_MAGIC + struct.pack("<IIdddd", *shape, tau0, dtau, nu0, dnu)


def _sur1_body(values: np.ndarray) -> memoryview:
    # copies only when the input is strided or not little-endian complex128
    return np.ascontiguousarray(values, dtype="<c16").data


def write_surface(
    path: str | Path,
    values: np.ndarray | AmbiguitySurface,
    tau0: float | None = None,
    dtau: float | None = None,
    nu0: float | None = None,
    dnu: float | None = None,
) -> None:
    """Write a SUR1 file from a surface or a raw 2-D array with axis data."""
    if isinstance(values, AmbiguitySurface):
        s = values
        values, tau0, dtau = s.values, float(s.tau_axis[0]), s.d_tau
        nu0, dnu = float(s.nu_axis[0]), s.d_nu
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise FileFormatError("surface values must be 2-D")
    if min(arr.shape) < 2:
        raise FileFormatError(f"surface axes need at least 2 points, got {arr.shape}")
    axes = {"tau0": tau0, "dtau": dtau, "nu0": nu0, "dnu": dnu}
    if missing := [name for name, x in axes.items() if x is None]:
        raise FileFormatError(f"raw surface values need axis values; missing {', '.join(missing)}")
    header = _sur1_header(arr.shape, tau0, dtau, nu0, dnu)
    body = _sur1_body(arr)
    with _new_file(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def write_surface_stream(
    path: str | Path,
    pairs: list[tuple[SampledSignal, SampledSignal]],
    n_doppler: int | None,
) -> tuple[int, int, complex]:
    """Write the SUR1 file of the surface sum_i chi(u_i, v_i) over the signal
    pairs (u_i, v_i) one block of lag rows at a time, byte-identical to
    :func:`write_surface` of that surface built in memory.  One pair (u, v)
    gives ``cross_ambiguity(u, v, n_doppler)``; the self pairs of an array
    give its ``spatial_integral``.

    Only one block of the surface is ever in memory.  Every size is checked
    and the block buffer allocated before the file is opened; if the stream
    fails after that, the partial file is deleted.  Returns the lag count,
    the Doppler count and the surface value at the origin (tau, nu) = (0, 0).
    """
    blocks = _SurfaceBlocks(pairs, n_doppler, cyclic=False, whole=False)
    tau, nu = blocks.tau_axis, blocks.nu_axis
    header = _sur1_header(
        (tau.size, nu.size), float(tau[0]), float(tau[1] - tau[0]),
        float(nu[0]), float(nu[1] - nu[0]),
    )
    # lag 0 is row -lags[0]; Doppler 0 is column n_doppler/2
    row0, col0 = -int(blocks.lags[0]), nu.size // 2
    with _new_file(path, "wb") as fh:
        fh.write(header)
        for start, block in blocks:
            fh.write(_sur1_body(block))
            if start <= row0 < start + len(block):
                origin = complex(block[row0 - start, col0])
    return tau.size, nu.size, origin


def read_surface(path: str | Path) -> AmbiguitySurface:
    """Read a SUR1 file.

    The container carries axes only; the result is tagged "linear" with
    dt set to the lag step and t0 to 0 (SUR1 does not store signal
    provenance)."""
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
    body = blob[4 + header:]
    if len(body) != 16 * n_tau * n_nu:
        raise FileFormatError(f"{path}: SUR1 payload size mismatch")
    values = np.frombuffer(body, dtype="<c16").astype(np.complex128)
    values = values.reshape(n_tau, n_nu)
    tau_axis = tau0 + dtau * np.arange(n_tau)
    nu_axis = nu0 + dnu * np.arange(n_nu)
    return AmbiguitySurface(values, tau_axis, nu_axis, "linear", dtau, 0.0)


def write_surface_csv(path: str | Path, s: AmbiguitySurface) -> None:
    """CSV with axis header comments and one `tau,nu,re,im` line per cell,
    written one lag row at a time.  If the write fails, no file is left."""
    header = (
        f"# n_tau={s.n_lag} n_nu={s.n_doppler}\n"
        f"# tau0={_f(float(s.tau_axis[0]))} dtau={_f(s.d_tau)} "
        f"nu0={_f(float(s.nu_axis[0]))} dnu={_f(s.d_nu)}\n"
        "tau,nu,re,im\n"
    )
    # tau and nu are formatted once each, with their commas
    nus = [_f(nu) + "," for nu in s.nu_axis.tolist()]
    with _new_file(path, "w") as fh:
        fh.write(header)
        for tau, row in zip(s.tau_axis.tolist(), s.values):
            fh.write(_text_lines("%s%s%.17g,%.17g\n", repeat(_f(tau) + ","), nus,
                                 row.real.tolist(), row.imag.tolist()))


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
    return AmbiguitySurface(values, tau_axis, nu_axis, "linear", dtau, 0.0)


def write_ppm(
    path: str | Path,
    values: np.ndarray,
    db_floor: float = -60.0,
    scaling: str = "db",
) -> None:
    """8-bit grayscale P5 heatmap of |values| (rows = lag, columns = Doppler).

    "db" maps [db_floor, 0] dB relative to the peak onto [0, 255];
    "linear" maps [0, peak].  A zero surface renders black.
    """
    if scaling not in ("db", "linear"):
        raise FileFormatError(f"unknown scaling {scaling!r}")
    mag = np.abs(np.asarray(values))
    peak = float(mag.max())
    if peak <= 0.0:
        img = np.zeros(mag.shape)
    elif scaling == "linear":
        img = mag / peak
    else:
        if not (math.isfinite(db_floor) and db_floor < 0):
            raise FileFormatError(f"db_floor must be negative and finite, got {db_floor}")
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(mag / peak)
        img = 1.0 - np.clip(db, db_floor, 0.0) / db_floor
    data = np.round(img * 255.0).astype(np.uint8)
    h, w = data.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def write_report(path: str | Path, reports: list[CheckReport]) -> None:
    Path(path).write_text("".join(r.format_line() + "\n" for r in reports))
