"""Command-line front-end.

Four subcommands:

* ``gen``    writes waveform files (SIG1 text or SIGB binary),
* ``af``     computes a cross/self ambiguity or Wigner surface,
* ``mimo``   evaluates spatial slices and the spatial-integral trace,
* ``verify`` runs named identity-check suites and reports pass/fail lines.

``verify --tol X`` replaces the tolerance of every check in the suite;
without it each check keeps its own.  The internal gates do not move with
it: PSD route agreement 1e-8, uniqueness surface distance 1e-8,
collinearity sum 1e-8 and symmetry mask coverage 0.9.

Exit codes: 0 all checks passed / command succeeded, 1 at least one check
failed, 2 usage or validation error, including a size too large to
allocate.

A plain-text config file (``key=value`` lines, ``#`` comments) can seed
any subcommand's flags via ``--config``; explicit flags win.  Keys use
flag names without the leading dashes; switch flags take ``true``/``false``.
Outputs carry no timestamps, so a fixed command line (and seed) produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import io_formats
from .ambiguity import (
    SteeringConfig,
    _SurfaceBlocks,
    _trace_pairs,
    mimo_beams,
    mimo_slice_spatial,
    wigner,
)
from .errors import InvalidParameterError, MimoafError
from .properties import (
    CheckReport,
    check_mimo_energy,
    check_norm_identity,
    collinearity_check,
    gram_psd_check,
    mimo_inner_product,
    moyal_inner_product,
    random_probe_set,
    recover_scalar,
    trace_psd_check,
    trace_reduction_check,
)
from .signals import (
    CANONICAL_SIGMA,
    HeisenbergPoint,
    SampledSignal,
    chirp_multiply,
    gen_gaussian,
    gen_lfm,
    gen_rect,
    gen_subcarrier_set,
    heisenberg_shift,
)
from .symmetry import (
    verify_dilation,
    verify_fourier_rotation,
    verify_lfm_shear,
    verify_mimo_symmetry,
    verify_mirror,
)

FAMILIES = ("rect", "gaussian", "lfm", "subcarriers")

_DT_FINE = 1.0 / 128  # rect-family default: T=1 at pad 2 gives 256 samples
_DT_GAUSS = 1.0 / 64


# ---------------------------------------------------------------- waveforms

def _family_waveform(family: str, M: int = 2) -> SampledSignal:
    """Default verification waveform on a 256-sample grid."""
    if family == "rect":
        return gen_rect(1.0, _DT_FINE)
    if family == "gaussian":
        return gen_gaussian(CANONICAL_SIGMA, _DT_GAUSS, 2.0)
    if family == "lfm":
        return gen_lfm(1.0, 4.0, _DT_FINE)
    return gen_subcarrier_set(M, 1.0, _DT_FINE)[0]


def _phase_family(u: SampledSignal, M: int, seed: int) -> list[SampledSignal]:
    rng = np.random.default_rng(seed + 101)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=M)
    return [u.replace_samples(u.samples * np.exp(1j * t)) for t in thetas]


def _family_set(family: str, M: int, seed: int) -> list[SampledSignal]:
    if family == "subcarriers":
        return gen_subcarrier_set(M, 1.0, _DT_FINE)
    return _phase_family(_family_waveform(family, M), M, seed)


def _rotation_waveform(family: str, M: int = 1) -> SampledSignal:
    """256 samples at dt = 1/16, so n dt^2 = 1 (rotation-check grid)."""
    if family == "rect":
        return gen_rect(8.0, 1.0 / 16)
    if family == "gaussian":
        return gen_gaussian(CANONICAL_SIGMA, 1.0 / 16, 8.0)
    if family == "lfm":
        return gen_lfm(8.0, 0.5, 1.0 / 16)
    return gen_subcarrier_set(M, 8.0, 1.0 / 16)[0]


def _aligned_chirp_rate(u: SampledSignal, n_doppler: int) -> float:
    """Smallest chirp rate whose shear rolls the Doppler axis by whole bins."""
    return 1.0 / (n_doppler * u.dt * u.dt)


def _mixture(basis: list[SampledSignal], rng: np.random.Generator) -> SampledSignal:
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    total = np.zeros(basis[0].n, dtype=np.complex128)
    for ci, b in zip(c, basis):
        total += ci * b.samples
    out = basis[0].replace_samples(total)
    return out.replace_samples(out.samples / out.norm())


def _mixture_basis(family: str) -> list[SampledSignal]:
    u = _family_waveform(family)
    shifted = heisenberg_shift(u, HeisenbergPoint(8 * u.dt, 1.0))
    chirped = chirp_multiply(u, 2.0)
    return [u, shifted, chirped]


# ------------------------------------------------------------------- suites

def _suite_norm(args, tol: dict) -> list[CheckReport]:
    u = _family_waveform(args.family, args.M)
    v = chirp_multiply(heisenberg_shift(u, HeisenbergPoint(8 * u.dt, 1.0)), 2.0)
    out = [
        check_norm_identity(u, u, args.n_doppler, **tol),
        check_norm_identity(u, v, args.n_doppler, **tol),
    ]
    if args.family == "subcarriers":
        pair = gen_subcarrier_set(2, 1.0, _DT_FINE)
        out.append(check_norm_identity(pair[0], pair[1], args.n_doppler, **tol))
    return out


def _suite_mimo_energy(args, tol: dict) -> list[CheckReport]:
    cfg = SteeringConfig(args.M, args.gamma, args.K)
    waves = _family_set(args.family, args.M, args.seed)
    return [check_mimo_energy(waves, cfg, args.n_doppler, **tol)]


def _suite_moyal(args, tol: dict) -> list[CheckReport]:
    basis = _mixture_basis(args.family)
    rng = np.random.default_rng(args.seed)
    out = []
    u = basis[0]
    out.append(moyal_inner_product(u, u, u, u, args.n_doppler, **tol))
    for _ in range(3):
        quad = [_mixture(basis, rng) for _ in range(4)]
        out.append(moyal_inner_product(*quad, args.n_doppler, **tol))
    return out


def _suite_mimo_moyal(args, tol: dict) -> list[CheckReport]:
    cfg = SteeringConfig(args.M, args.gamma, args.K)
    us = _family_set(args.family, args.M, args.seed)
    vs = _family_set(args.family, args.M, args.seed + 7)
    ortho = gen_subcarrier_set(args.M, 1.0, _DT_FINE)
    return [
        mimo_inner_product(us, vs, cfg, args.fs, args.fsp, args.n_doppler, **tol),
        mimo_inner_product(ortho, ortho, cfg, args.fs, args.fs, args.n_doppler, **tol),
    ]


def _psd_waveform(family: str) -> SampledSignal:
    # the Gaussian needs the wide window so probe shifts never clip tails
    if family == "gaussian":
        return gen_gaussian(CANONICAL_SIGMA, _DT_GAUSS, 4.0)
    return _family_waveform(family)


def _suite_psd(args, tol: dict) -> list[CheckReport]:
    u = _psd_waveform(args.family)
    probes = random_probe_set(u, args.probes, args.seed, args.n_doppler)
    return [gram_psd_check(u, probes, n_doppler=args.n_doppler, **tol)]


def _suite_trace_psd(args, tol: dict) -> list[CheckReport]:
    waves = gen_subcarrier_set(args.M, 1.0, _DT_FINE)
    cfg = SteeringConfig(args.M, args.gamma, args.K)
    probes = random_probe_set(waves[0], args.probes, args.seed, args.n_doppler)
    return [trace_psd_check(waves, probes, cfg, args.n_doppler, **tol)]


def _suite_uniqueness(args, tol: dict) -> list[CheckReport]:
    u = _family_waveform(args.family, args.M)
    rng = np.random.default_rng(args.seed)
    out = []
    for _ in range(3):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        v = u.replace_samples(u.samples * np.exp(1j * theta))
        out.append(recover_scalar(u, v, args.n_doppler, **tol))
    scaled = u.replace_samples(2.0 * u.samples)
    out.append(recover_scalar(u, scaled, args.n_doppler, **tol))
    return out


def _suite_collinearity(args, tol: dict) -> list[CheckReport]:
    u = _family_waveform(args.family, args.M)
    v = u.replace_samples(3j * u.samples)
    return [
        collinearity_check(u, v, args.n_doppler, **tol),
        collinearity_check(u, u, args.n_doppler, **tol),
    ]


def _suite_trace_reduction(args, tol: dict) -> list[CheckReport]:
    cfg = SteeringConfig(args.M, args.gamma, args.K)
    base = _family_waveform("gaussian")
    reduced = trace_reduction_check(
        _phase_family(base, args.M, args.seed), cfg, args.n_doppler, **tol
    )
    refused = trace_reduction_check(
        gen_subcarrier_set(args.M, 1.0, _DT_FINE), cfg, args.n_doppler, **tol
    )
    return [reduced, refused]


def _suite_sym_J(args, tol: dict) -> list[CheckReport]:
    u = _rotation_waveform(args.family)
    return [verify_fourier_rotation(u, **tol)]


def _suite_sym_mirror(args, tol: dict) -> list[CheckReport]:
    u = _family_waveform(args.family, args.M)
    v = chirp_multiply(heisenberg_shift(u, HeisenbergPoint(4 * u.dt, 0.5)), 1.0)
    return [verify_mirror(u, v, args.n_doppler, **tol)]


def _suite_sym_lfm(args, tol: dict) -> list[CheckReport]:
    u = _family_waveform(args.family, args.M)
    rate = _aligned_chirp_rate(u, args.n_doppler)
    return [verify_lfm_shear(u, rate=rate, n_doppler=args.n_doppler, **tol)]


def _suite_sym_dilate(args, tol: dict) -> list[CheckReport]:
    # the smooth family: rect-envelope spectra alias under compression
    u = gen_gaussian(CANONICAL_SIGMA, _DT_GAUSS, 2.0)
    return [verify_dilation(u, b=2.0, n_doppler=args.n_doppler, **tol)]


def _suite_sym_mimo(args, tol: dict) -> list[CheckReport]:
    out = []
    rot_set = gen_subcarrier_set(2, 8.0, 1.0 / 16)
    cfg = SteeringConfig(2, args.gamma, args.K)
    out.append(
        verify_mimo_symmetry(rot_set, cfg, 0.25, 0.25, verify_fourier_rotation, **tol)
    )
    flat_set = gen_subcarrier_set(2, 1.0, _DT_FINE)
    out.append(
        verify_mimo_symmetry(flat_set, cfg, args.fs, args.fsp, verify_mirror,
                             n_doppler=args.n_doppler, **tol)
    )
    rate = _aligned_chirp_rate(flat_set[0], args.n_doppler)
    out.append(
        verify_mimo_symmetry(flat_set, cfg, args.fs, args.fsp, verify_lfm_shear,
                             rate=rate, n_doppler=args.n_doppler, **tol)
    )
    smooth = _phase_family(gen_gaussian(CANONICAL_SIGMA, _DT_GAUSS, 2.0), 2, args.seed)
    out.append(
        verify_mimo_symmetry(smooth, cfg, args.fs, args.fsp, verify_dilation,
                             b=2.0, n_doppler=args.n_doppler, **tol)
    )
    return out


_SUITE_FUNCS = {
    "norm": _suite_norm,
    "mimo-energy": _suite_mimo_energy,
    "moyal": _suite_moyal,
    "mimo-moyal": _suite_mimo_moyal,
    "psd": _suite_psd,
    "trace-psd": _suite_trace_psd,
    "uniqueness": _suite_uniqueness,
    "collinearity": _suite_collinearity,
    "trace-reduction": _suite_trace_reduction,
    "sym-J": _suite_sym_J,
    "sym-mirror": _suite_sym_mirror,
    "sym-lfm": _suite_sym_lfm,
    "sym-dilate": _suite_sym_dilate,
    "sym-mimo": _suite_sym_mimo,
}
SUITES = (*_SUITE_FUNCS, "all")


# ----------------------------------------------------------------- commands

def _resolve_dt(args) -> float:
    if args.dt is not None:
        return args.dt
    return _DT_GAUSS if args.family == "gaussian" else _DT_FINE


def cmd_gen(args) -> int:
    dt = _resolve_dt(args)
    out = Path(args.out)
    if args.family == "subcarriers":
        waves = gen_subcarrier_set(args.M, args.T, dt, args.pad)
        for m, w in enumerate(waves):
            path = out.with_name(f"{out.stem}{m}{out.suffix}")
            io_formats.write_signal(path, w, binary=args.binary)
            print(f"wrote {path} n={w.n} dt={w.dt:.12g} t0={w.t0:.12g} "
                  f"energy={w.energy():.12g}")
        return 0
    if args.family == "rect":
        w = gen_rect(args.T, dt, args.pad)
    elif args.family == "gaussian":
        w = gen_gaussian(args.sigma, dt, args.half_width)
    else:
        w = gen_lfm(args.T, args.rate, dt, args.pad)
    io_formats.write_signal(out, w, binary=args.binary)
    print(f"wrote {out} n={w.n} dt={w.dt:.12g} t0={w.t0:.12g} energy={w.energy():.12g}")
    return 0


def _write_outputs(args, blocks, tau_axis: np.ndarray, nu_axis: np.ndarray) -> complex:
    """Feed the surface's (first row, block) pairs to every requested output
    file and return its value at the origin."""
    return io_formats.write_surface_blocks(
        blocks, tau_axis, nu_axis, sur1=args.out, csv=args.csv, ppm=args.ppm,
        db_floor=args.db_floor, scaling="linear" if args.linear else "db",
    )


def _cross_surface(args, label: str, pairs: list[tuple[SampledSignal, SampledSignal]]) -> int:
    """Write the surface sum_i chi(u_i, v_i) of the signal pairs to every
    requested output and print its line.  The surface is built one block of
    lag rows at a time and never held whole."""
    blocks = _SurfaceBlocks(pairs, args.n_doppler, cyclic=False, whole=False)
    origin = _write_outputs(args, blocks, blocks.tau_axis, blocks.nu_axis)
    print(f"{label} n_lag={blocks.lags.size} n_doppler={blocks.n_doppler} "
          f"origin={origin.real:.12g}{origin.imag:+.12g}j")
    return 0


def cmd_af(args) -> int:
    u = io_formats.read_signal(args.u)
    v = io_formats.read_signal(args.v) if args.v else u
    if args.wigner:
        w = wigner(u, v, n_freq=args.n_freq)
        # the CSV lists each axis as SUR1 stores it: first value plus k steps
        axes = [a[0] + (a[1] - a[0]) * np.arange(a.size) for a in (w.time_axis, w.freq_axis)]
        _write_outputs(args, [(0, w.values)], *axes)
        print(f"wigner n_time={w.values.shape[0]} n_freq={w.values.shape[1]}")
        return 0
    return _cross_surface(args, "af", [(u, v)])


def cmd_mimo(args) -> int:
    waves = [io_formats.read_signal(p) for p in args.inputs]
    cfg = SteeringConfig(len(waves), args.gamma, args.K)
    if args.slice_spatial:
        grid = mimo_slice_spatial(waves, cfg, args.tau, args.nu, args.n_doppler)
        fs_axis = np.arange(cfg.n_spatial) * (1.0 / cfg.n_spatial)
        _write_outputs(args, [(0, grid)], fs_axis, fs_axis)
        print(f"spatial-slice K={cfg.n_spatial} tau={args.tau:.12g} nu={args.nu:.12g}")
        return 0
    if args.spatial_integral:
        # the trace: one surface of the M self pairs' summed lag products
        return _cross_surface(args, "spatial-integral", _trace_pairs(waves, cfg))
    # the beam slice is the cross-ambiguity of the beamformed pair
    return _cross_surface(args, "mimo-slice", [mimo_beams(waves, cfg, args.fs, args.fsp)])


def cmd_verify(args) -> int:
    if args.tol is not None and not args.tol >= 0:
        # a tolerance no error can meet would report every check as failed
        raise InvalidParameterError(f"--tol must be >= 0, got {args.tol}")
    if args.seed < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
    # without --tol every check keeps its own tolerance
    tol = {} if args.tol is None else {"tol": args.tol}
    names = list(_SUITE_FUNCS) if args.suite == "all" else [args.suite]
    reports: list[CheckReport] = []
    for name in names:
        reports.extend(_SUITE_FUNCS[name](args, tol))
    for r in reports:
        print(r.format_line())
    if args.report:
        io_formats.write_report(args.report, reports)
    return 0 if all(r.passed for r in reports) else 1


# ------------------------------------------------------------------ parsing

@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: each add_argument sizes a help formatter to the
    # terminal, about 2 ms in all, and parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="mimoaf",
        description="Delay-Doppler ambiguity surfaces and their identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate waveform files")
    g.add_argument("--config", help="key=value defaults file")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--T", type=float, default=1.0, help="pulse length in seconds")
    g.add_argument("--dt", type=float, default=None,
                   help="sample period (default 1/128; Gaussian 1/64)")
    g.add_argument("--pad", type=float, default=2.0, help="window/pulse length ratio")
    g.add_argument("--sigma", type=float, default=CANONICAL_SIGMA,
                   help="Gaussian width (default: Fourier-invariant)")
    g.add_argument("--half-width", type=float, default=4.0,
                   help="Gaussian window half-length in seconds")
    g.add_argument("--rate", type=float, default=4.0, help="chirp rate in Hz/s")
    g.add_argument("--M", type=int, default=2, help="subcarrier count")
    g.add_argument("--binary", action="store_true", help="write SIGB instead of SIG1")
    g.add_argument("-o", "--out", required=True, help="output signal path")
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("af", help="compute an ambiguity or Wigner surface")
    a.add_argument("--config", help="key=value defaults file")
    a.add_argument("--u", required=True, help="first signal file")
    a.add_argument("--v", help="second signal file (default: self surface)")
    a.add_argument("--wigner", action="store_true", help="Wigner distribution instead")
    a.add_argument("--n-doppler", type=int, default=1024)
    a.add_argument("--n-freq", type=int, default=None, help="Wigner frequency bins")
    a.add_argument("-o", "--out", help="SUR1 output path")
    a.add_argument("--csv", help="CSV output path")
    a.add_argument("--ppm", help="grayscale heatmap output path")
    a.add_argument("--db-floor", type=float, default=-60.0)
    a.add_argument("--linear", action="store_true", help="linear heatmap scaling")
    a.set_defaults(func=cmd_af)

    m = sub.add_parser("mimo", help="MIMO beam slices and the spatial integral")
    m.add_argument("--config", help="key=value defaults file")
    m.add_argument("--inputs", nargs="+", required=True, help="waveform files")
    m.add_argument("--gamma", type=float, default=1.0)
    m.add_argument("--K", type=int, default=64, help="spatial grid points")
    m.add_argument("--n-doppler", type=int, default=1024)
    m.add_argument("--fs", type=float, default=0.0)
    m.add_argument("--fsp", type=float, default=0.0)
    mode = m.add_mutually_exclusive_group()
    mode.add_argument("--spatial-integral", action="store_true",
                      help="trace surface instead of a single slice")
    mode.add_argument("--slice-spatial", action="store_true",
                      help="K x K spatial grid at one (tau, nu) point")
    m.add_argument("--tau", type=float, default=0.0)
    m.add_argument("--nu", type=float, default=0.0)
    m.add_argument("-o", "--out", help="SUR1 output path")
    m.add_argument("--csv", help="CSV output path")
    m.add_argument("--ppm", help="grayscale heatmap output path")
    m.add_argument("--db-floor", type=float, default=-60.0)
    m.add_argument("--linear", action="store_true")
    m.set_defaults(func=cmd_mimo)

    v = sub.add_parser("verify", help="run identity-check suites")
    v.add_argument("--config", help="key=value defaults file")
    v.add_argument("--suite", required=True, choices=SUITES)
    v.add_argument("--family", default="gaussian", choices=FAMILIES)
    v.add_argument("--M", type=int, default=2)
    v.add_argument("--gamma", type=float, default=1.0)
    v.add_argument("--K", type=int, default=64)
    v.add_argument("--n-doppler", type=int, default=1024)
    v.add_argument("--probes", type=int, default=8)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--fs", type=float, default=0.3)
    v.add_argument("--fsp", type=float, default=0.7)
    v.add_argument("--tol", type=float, default=None,
                   help="replace each check's own tolerance (internal gates stay fixed)")
    v.add_argument("-o", "--report", help="write the report lines to this file")
    v.set_defaults(func=cmd_verify)
    return parser


def _load_config_tokens(path: str) -> list[str]:
    tokens: list[str] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise MimoafError(f"config line without '=': {raw!r}")
        key = key.strip()
        value = value.strip()
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            tokens.append(flag)
        elif value.lower() == "false":
            continue
        else:
            tokens.extend([flag, value])
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens right after the subcommand, so explicit
    flags (parsed later) override them."""
    config_path = None
    rest: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise MimoafError("--config needs a path")
            config_path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            config_path = tok.split("=", 1)[1]
            i += 1
            continue
        rest.append(tok)
        i += 1
    if config_path is None:
        return argv
    tokens = _load_config_tokens(config_path)
    for pos, tok in enumerate(rest):
        if tok in ("gen", "af", "mimo", "verify"):
            return rest[: pos + 1] + tokens + rest[pos + 1:]
    return rest + tokens


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        argv = _inject_config(argv)
    except (MimoafError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MimoafError, OSError, MemoryError) as exc:
        # a grid too large to allocate is a bad input, not a failed identity
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
