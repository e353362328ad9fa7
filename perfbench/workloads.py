"""The four benchmark workloads and their output checks.

Each op drives ``mimoaf.cli.main(argv)`` in-process, as a user's command
line would, or (text_io only) the public ``io_formats`` codecs around it.
Inputs come only from the seed.  Every op's output is checked by a route
that shares nothing with the program past the input samples: direct sums
written here, closed forms for the orthonormal subcarrier set, and the
SUR1/SIGB layouts read and written with ``struct``/``numpy`` here.  Checks
run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# the 14 suites of cli.SUITES at the commit that defined this benchmark,
# with the report lines each prints; "norm" prints one more for subcarriers
SUITE_LINES = {
    "norm": 2, "mimo-energy": 1, "moyal": 4, "mimo-moyal": 2, "psd": 1,
    "trace-psd": 1, "uniqueness": 4, "collinearity": 2, "trace-reduction": 2,
    "sym-J": 1, "sym-mirror": 1, "sym-lfm": 1, "sym-dilate": 1, "sym-mimo": 4,
}
VERIFY_FAMILIES = ("gaussian", "rect", "lfm", "subcarriers")

_SUR1_HEADER = struct.Struct("<4sIIdddd")


@dataclass
class Outcome:
    """What an op delivered, as judged outside the timed region."""

    errors: list[str] = field(default_factory=list)
    cells: int = 0  # surface cells the op delivered to the user
    checks: int = 0  # verify report lines
    checks_failed: int = 0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def run_cli(cli, argv: list[str]) -> str:
    """Standard output of ``cli.main(argv)``; a nonzero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"exit {rc}: {' '.join(argv)}: {err.getvalue().strip()}")
    return out.getvalue()


# ------------------------------------------------------------ file helpers

def write_sigb(path: Path, samples: np.ndarray, dt: float, t0: float) -> None:
    """SIGB container: magic, u32 n, f64 dt, f64 t0, little-endian c16."""
    blob = b"SIGB" + struct.pack("<Idd", samples.size, dt, t0)
    path.write_bytes(blob + samples.astype("<c16").tobytes())


def read_sur1_header(path: Path) -> tuple[int, int, float, float, float, float]:
    with open(path, "rb") as fh:
        magic, *rest = _SUR1_HEADER.unpack(fh.read(_SUR1_HEADER.size))
    if magic != b"SUR1":
        raise ValueError(f"{path.name}: not SUR1")
    return tuple(rest)


def read_sur1_cell(path: Path, n_nu: int, row: int, col: int) -> complex:
    with open(path, "rb") as fh:
        fh.seek(_SUR1_HEADER.size + 16 * (row * n_nu + col))
        re, im = struct.unpack("<dd", fh.read(16))
    return complex(re, im)


def parse_origin(line: str) -> complex:
    for tok in line.split():
        if tok.startswith("origin="):
            return complex(tok[len("origin="):])
    raise ValueError(f"no origin in {line!r}")


def direct_cell(u: np.ndarray, v: np.ndarray, dt: float, t0: float,
                lag: int, nu: float) -> complex:
    """dt * sum_n u[n] conj(v[n + lag]) exp(i 2 pi nu t_n), zero outside."""
    n = u.size
    idx = np.arange(max(0, -lag), min(n, n - lag))
    t = t0 + idx * dt
    return complex(dt * np.sum(u[idx] * np.conj(v[idx + lag])
                               * np.exp(2j * math.pi * nu * t)))


def _size_error(path: Path, n_tau: int, n_nu: int) -> list[str]:
    want = _SUR1_HEADER.size + 16 * n_tau * n_nu
    got = path.stat().st_size
    return [] if got == want else [f"{path.name}: {got} bytes, expected {want}"]


# --------------------------------------------------------------- workloads

class Workload:
    """A closed loop with one client.  Ops come in units (timed loops run
    whole units) and units in cycles (traced runs use whole cycles, so the
    per-op counts repeat exactly)."""

    name = ""
    units_per_cycle = 1
    min_units = 1
    # weights of gauge.py's parts (FFT, streaming memory, interpreted Python)
    gauge_mix = {"fft": 1 / 3, "mem": 1 / 3, "text": 1 / 3}

    def __init__(self, mods: dict, out_dir: Path, seed: int) -> None:
        self.mods = mods
        self.seed = seed

    def unit(self, u: int) -> list[Op]:
        raise NotImplementedError


class VerifyAll(Workload):
    """One op is one ``verify --suite <s>``; a unit is a pass over the 14
    suites; pass p uses family p % 4 and seed + p; a cycle is 4 passes."""

    name = "verify_all"
    units_per_cycle = 4
    min_units = 12  # keeps 10 ops beyond the tail inside the slowest suite

    def unit(self, p: int) -> list[Op]:
        family = VERIFY_FAMILIES[p % 4]
        return [self._op(suite, family, self.seed + p) for suite in SUITE_LINES]

    def _op(self, suite: str, family: str, seed: int) -> Op:
        argv = ["verify", "--suite", suite, "--family", family, "--seed", str(seed)]
        want = SUITE_LINES[suite] + (suite == "norm" and family == "subcarriers")

        def check(text: str) -> Outcome:
            lines = text.splitlines()
            bad = [ln for ln in lines if ln.split()[1:2] != ["pass"]]
            res = Outcome(checks=len(lines), checks_failed=len(bad))
            if bad:
                res.errors.append(f"{suite}/{family}: {bad[0]}")
            if len(lines) != want:
                res.errors.append(f"{suite}/{family}: {len(lines)} lines, expected {want}")
            return res

        return Op(f"verify:{suite}:{family}",
                  lambda: run_cli(self.mods["cli"], argv), check)


class AfLarge(Workload):
    """One op is ``af --u U --v V --n-doppler 4096 -o out.sur`` on a seeded
    random n=1024 SIGB pair: one 2047 x 4096 (128 MiB) surface."""

    name = "af_large"
    min_units = 36  # one op's cost varies by ~9%; the median of 36 by ~3%
    n = 1024
    n_doppler = 4096
    dt = 1.0 / 256

    def __init__(self, mods, out_dir, seed):
        super().__init__(mods, out_dir, seed)
        rng = np.random.default_rng(seed)
        self.t0 = -(self.n // 2) * self.dt
        scale = 1.0 / math.sqrt(2 * self.n * self.dt)  # about unit energy
        self.u, self.v = (
            (rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)) * scale
            for _ in range(2)
        )
        self.u_path, self.v_path = out_dir / "u.sig", out_dir / "v.sig"
        write_sigb(self.u_path, self.u, self.dt, self.t0)
        write_sigb(self.v_path, self.v, self.dt, self.t0)
        self.sur = out_dir / "af.sur"
        self.origin = self.dt * np.sum(self.u * np.conj(self.v))
        self.bound = self.dt * float(np.linalg.norm(self.u) * np.linalg.norm(self.v))

    def unit(self, i: int) -> list[Op]:
        argv = ["af", "--u", str(self.u_path), "--v", str(self.v_path),
                "--n-doppler", str(self.n_doppler), "-o", str(self.sur)]
        rng = np.random.default_rng((self.seed, i))
        cells = [(int(rng.integers(2 * self.n - 1)), int(rng.integers(self.n_doppler)))
                 for _ in range(4)]

        def check(text: str) -> Outcome:
            n_lag = 2 * self.n - 1
            res = Outcome(cells=n_lag * self.n_doppler)
            origin = parse_origin(text)
            if abs(origin - self.origin) > 1e-9 * abs(self.origin):
                res.errors.append(f"origin {origin} != {self.origin}")
            n_tau, n_nu, tau0, dtau, nu0, dnu = read_sur1_header(self.sur)
            if (n_tau, n_nu) != (n_lag, self.n_doppler):
                res.errors.append(f"SUR1 is {n_tau}x{n_nu}")
                return res
            res.errors += _size_error(self.sur, n_tau, n_nu)
            for row, col in cells:
                got = read_sur1_cell(self.sur, n_nu, row, col)
                lag = round(tau0 / dtau) + row
                want = direct_cell(self.u, self.v, self.dt, self.t0, lag, nu0 + col * dnu)
                if abs(got - want) > 1e-9 * self.bound:
                    res.errors.append(f"cell ({row},{col}) {got} != {want}")
            return res

        return [Op("af:2047x4096", lambda: run_cli(self.mods["cli"], argv), check)]


class MimoArray(Workload):
    """One op is one ``mimo`` call on M=4 orthonormal subcarrier SIGB files;
    a unit cycles the three modes (beam slice, spatial integral, K x K
    spatial grid), each at seeded on-grid coordinates."""

    name = "mimo_array"
    min_units = 7
    M = 4
    n = 256
    dt = 1.0 / 128
    n_doppler = 1024
    K = 64
    gamma = 1.0

    def __init__(self, mods, out_dir, seed):
        super().__init__(mods, out_dir, seed)
        # gen --family subcarriers --M 4: a unit-energy 128-sample rect pulse
        # centred in a 256-sample window, times exp(i 2 pi m t)
        self.t0 = -(self.n // 2) * self.dt
        t = self.t0 + np.arange(self.n) * self.dt
        env = np.zeros(self.n)
        env[self.n // 4: 3 * self.n // 4] = 1.0 / math.sqrt(self.n // 2 * self.dt)
        self.waves = [env * np.exp(2j * math.pi * m * t) for m in range(self.M)]
        self.paths = [out_dir / f"s{m}.sig" for m in range(self.M)]
        for path, w in zip(self.paths, self.waves):
            write_sigb(path, w, self.dt, self.t0)
        self.sur = out_dir / "mimo.sur"

    def _steer(self, fs: float) -> np.ndarray:
        return np.exp(2j * math.pi * self.gamma * fs * np.arange(self.M))

    def unit(self, c: int) -> list[Op]:
        rng = np.random.default_rng((self.seed, c))
        a, b = (int(x) for x in rng.integers(self.K, size=2))
        lag = int(rng.integers(-(self.n - 1), self.n))
        col = int(rng.integers(self.n_doppler))
        fs, fsp = a / self.K, b / self.K
        tau = lag * self.dt
        nu = (col - self.n_doppler // 2) / (self.n_doppler * self.dt)
        base = ["mimo", "--inputs", *map(str, self.paths),
                "--n-doppler", str(self.n_doppler), "--K", str(self.K),
                "--gamma", repr(self.gamma), "-o", str(self.sur)]
        n_lag = 2 * self.n - 1
        cli = self.mods["cli"]

        def surface_check(want_origin: complex) -> Callable[[str], Outcome]:
            def check(text: str) -> Outcome:
                res = Outcome(cells=n_lag * self.n_doppler)
                origin = parse_origin(text)
                if abs(origin - want_origin) > 1e-9 * self.M:
                    res.errors.append(f"origin {origin} != {want_origin}")
                n_tau, n_nu, *_ = read_sur1_header(self.sur)
                if (n_tau, n_nu) != (n_lag, self.n_doppler):
                    res.errors.append(f"SUR1 is {n_tau}x{n_nu}")
                else:
                    res.errors += _size_error(self.sur, n_tau, n_nu)
                return res
            return check

        def grid_check(_text: str) -> Outcome:
            res = Outcome(cells=self.K * self.K)
            n_tau, n_nu, *_ = read_sur1_header(self.sur)
            if (n_tau, n_nu) != (self.K, self.K):
                res.errors.append(f"SUR1 grid is {n_tau}x{n_nu}")
                return res
            raw = self.sur.read_bytes()[_SUR1_HEADER.size:]
            got = np.frombuffer(raw, dtype="<c16").reshape(self.K, self.K)
            # V = Z X Z^H with X summed directly; at (0, 0) X = I and this is
            # the closed form sum_m exp(i 2 pi gamma (a - b) m / K)
            X = np.array([[direct_cell(wi, wj, self.dt, self.t0, lag, nu)
                           for wj in self.waves] for wi in self.waves])
            Z = np.exp(2j * math.pi * self.gamma
                       * np.outer(np.arange(self.K) / self.K, np.arange(self.M)))
            gap = float(np.max(np.abs(got - Z @ X @ Z.conj().T)))
            if gap > 1e-9 * self.M * self.M:
                res.errors.append(f"spatial grid off by {gap:.3e}")
            return res

        beam = np.sum(self._steer(fs) * np.conj(self._steer(fsp)))
        return [
            Op("mimo:beam", lambda: run_cli(cli, base + ["--fs", repr(fs), "--fsp", repr(fsp)]),
               surface_check(beam)),
            Op("mimo:spatial-integral",
               lambda: run_cli(cli, base + ["--spatial-integral"]),
               surface_check(complex(self.M))),
            Op("mimo:slice-spatial",
               lambda: run_cli(cli, base + ["--slice-spatial", "--tau", repr(tau),
                                            "--nu", repr(nu)]),
               grid_check),
        ]


class TextIo(Workload):
    """One op: write a seeded random signal as SIG1 text, run
    ``af --csv --ppm`` on it, and read the CSV back."""

    name = "text_io"
    min_units = 20
    # the op is almost all interpreted text codecs, which host load slows
    # up to 1.8x where the FFT slows 1.25x: weigh the gauge to match
    gauge_mix = {"fft": 0.25, "text": 0.75}
    n = 128
    n_doppler = 256
    dt = 1.0 / 64

    def __init__(self, mods, out_dir, seed):
        super().__init__(mods, out_dir, seed)
        rng = np.random.default_rng(seed)
        samples = (rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n))
        samples /= math.sqrt(2 * self.n * self.dt)
        self.signal = mods["signals"].SampledSignal(samples, self.dt, -(self.n // 2) * self.dt)
        self.sig = out_dir / "u.sig"
        self.csv = out_dir / "af.csv"
        self.ppm = out_dir / "af.ppm"
        self.reference = None

    def unit(self, i: int) -> list[Op]:
        io_formats = self.mods["io_formats"]
        argv = ["af", "--u", str(self.sig), "--n-doppler", str(self.n_doppler),
                "--csv", str(self.csv), "--ppm", str(self.ppm)]

        def run():
            io_formats.write_signal(self.sig, self.signal)
            run_cli(self.mods["cli"], argv)
            return io_formats.read_surface_csv(self.csv)

        def check(surface) -> Outcome:
            if self.reference is None:  # the in-memory surface, computed once
                self.reference = self.mods["ambiguity"].cross_ambiguity(
                    self.signal, n_doppler=self.n_doppler).values
            res = Outcome(cells=self.reference.size)
            if not np.array_equal(surface.values, self.reference):
                res.errors.append("CSV read-back differs from the in-memory surface")
            back = io_formats.read_signal(self.sig)
            if not (np.array_equal(back.samples, self.signal.samples)
                    and back.dt == self.signal.dt and back.t0 == self.signal.t0):
                res.errors.append("SIG1 round trip is not exact")
            h, w = self.reference.shape
            head = f"P5\n{w} {h}\n255\n".encode()
            if self.ppm.read_bytes()[: len(head)] != head or \
                    self.ppm.stat().st_size != len(head) + w * h:
                res.errors.append("PPM header or size is wrong")
            return res

        return [Op(f"text_io:{2 * self.n - 1}x{self.n_doppler}", run, check)]


WORKLOADS = {w.name: w for w in (VerifyAll, AfLarge, MimoArray, TextIo)}
