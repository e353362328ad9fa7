"""Command-line front-end.

Four subcommands:

* ``gen``    writes waveform files (SIG1 text or SIGB binary),
* ``af``     computes a cross/self ambiguity or Wigner surface,
* ``mimo``   evaluates spatial slices and the spatial-integral trace,
* ``verify`` runs one or more named identity-check suites in order and
  prints each suite's pass/fail lines as soon as it finishes.  A suite
  that refuses its input does not stop the others; the run then ends
  with one error line naming every refusing suite.

``verify --tol X`` replaces the tolerance of every check in the suite;
without it each check keeps its own.  X must be finite and >= 0.  The
internal gates do not move with it: PSD route agreement 1e-8, the surface
distance 1e-8 of the larger self surface's norm that gates uniqueness
only, the unimodular fit 1e-6 by which trace-reduction decides its
hypothesis on the waveforms and collinearity sum 1e-8, each relative, so
no verdict depends on the signals' amplitude.  A failed PSD or
collinearity gate fails its check at any X.

``af`` and ``mimo`` default to 1024 Doppler bins, or to n rounded up to
even for a signal longer than that; ``verify``'s grids are fixed, and its
default is 1024.

Exit codes: 0 all checks passed / command succeeded, 1 at least one check
failed, 2 usage or validation error, including a size too large to
allocate.  In ``verify`` a refusing suite outranks a failed check: 2,
with the lines of the suites that ran kept on stdout and ``--report``
deleted.

A plain-text UTF-8 config file (``key=value`` lines; a ``#`` at the start
of a line or after whitespace starts a comment) can seed any subcommand's
flags via ``--config``, given before or after the subcommand and
repeatable; a later file's value for a key overrides an earlier one's, and
explicit flags win.  Keys are long flag names without the leading dashes;
switch flags take ``true``/``false`` only, every other flag its value
verbatim; ``--conf`` or a ``config=`` line exits 2.
Outputs carry no timestamps, so a fixed command line (and seed) produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import io_formats
from .ambiguity import (
    _ambiguity_blocks,
    _trace_pairs,
    _wigner_blocks,
    mimo_beams,
    mimo_slice_spatial,
)
from .errors import InvalidParameterError, MimoafError
from .properties import (
    CheckReport,
    _collinearity_checks,
    _recover_scalars,
    check_mimo_energy,
    check_norm_identity,
    gram_psd_check,
    mimo_inner_product,
    moyal_inner_product,
    random_probe_set,
    trace_psd_check,
    trace_reduction_check,
)
from .signals import (
    CANONICAL_SIGMA,
    HeisenbergPoint,
    SampledSignal,
    _require_count,
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

# the sym-J grid: 256 samples at dt = 1/16, so n dt^2 = 1
_ROTATION = {"T": 8.0, "dt": 1.0 / 16, "half_width": 8.0, "rate": 0.5}


# ---------------------------------------------------------------- waveforms

def _waveforms(family: str, M: int = 1, T: float = 1.0, dt: float | None = None,
               pad: float = 2.0, sigma: float = CANONICAL_SIGMA, half_width: float = 2.0,
               rate: float = 4.0) -> list[SampledSignal]:
    """The M subcarriers, or a list holding the family's one pulse.  The
    defaults are the verification grid: 256 samples, at dt = 1/64 for the
    Gaussian and 1/128 for every other family."""
    if dt is None:
        dt = 1.0 / 64 if family == "gaussian" else 1.0 / 128
    if family == "subcarriers":
        return gen_subcarrier_set(M, T, dt, pad)
    if family == "rect":
        return [gen_rect(T, dt, pad)]
    if family == "gaussian":
        return [gen_gaussian(sigma, dt, half_width)]
    return [gen_lfm(T, rate, dt, pad)]


def _phase_family(u: SampledSignal, M: int, seed: int) -> list[SampledSignal]:
    _require_count("M", M, 1)
    rng = np.random.default_rng(seed + 101)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=M)
    return [u.replace_samples(u.samples * np.exp(1j * t)) for t in thetas]


def _family_set(family: str, M: int, seed: int) -> list[SampledSignal]:
    if family == "subcarriers":
        return _waveforms(family, M)
    return _phase_family(_waveforms(family)[0], M, seed)


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
    u = _waveforms(family)[0]
    shifted = heisenberg_shift(u, HeisenbergPoint(8 * u.dt, 1.0))
    chirped = chirp_multiply(u, 2.0)
    return [u, shifted, chirped]


# ------------------------------------------------------------------- suites

def _suite_norm(args, tol: dict) -> list[CheckReport]:
    u = _waveforms(args.family)[0]
    v = chirp_multiply(heisenberg_shift(u, HeisenbergPoint(8 * u.dt, 1.0)), 2.0)
    out = [
        check_norm_identity(u, u, args.n_doppler, **tol),
        check_norm_identity(u, v, args.n_doppler, **tol),
    ]
    if args.family == "subcarriers":
        pair = _waveforms("subcarriers", 2)
        out.append(check_norm_identity(pair[0], pair[1], args.n_doppler, **tol))
    return out


def _suite_mimo_energy(args, tol: dict) -> list[CheckReport]:
    waves = _family_set(args.family, args.M, args.seed)
    return [check_mimo_energy(waves, args.gamma, args.n_doppler, **tol)]


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
    us = _family_set(args.family, args.M, args.seed)
    vs = _family_set(args.family, args.M, args.seed + 7)
    ortho = _waveforms("subcarriers", args.M)
    return [
        mimo_inner_product(us, vs, args.gamma, args.fs, args.fsp, args.n_doppler, **tol),
        mimo_inner_product(ortho, ortho, args.gamma, args.fs, args.fs, args.n_doppler, **tol),
    ]


def _suite_psd(args, tol: dict) -> list[CheckReport]:
    # the Gaussian needs the wide window so probe shifts never clip tails
    u = _waveforms(args.family, half_width=4.0)[0]
    probes = random_probe_set(u, args.probes, args.seed, args.n_doppler)
    return [gram_psd_check(u, probes, n_doppler=args.n_doppler, **tol)]


def _suite_trace_psd(args, tol: dict) -> list[CheckReport]:
    waves = _waveforms("subcarriers", args.M)
    probes = random_probe_set(waves[0], args.probes, args.seed, args.n_doppler)
    return [trace_psd_check(waves, probes, args.gamma, args.n_doppler, **tol)]


def _suite_uniqueness(args, tol: dict) -> list[CheckReport]:
    u = _waveforms(args.family)[0]
    rng = np.random.default_rng(args.seed)
    vs = []
    for _ in range(3):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        vs.append(u.replace_samples(u.samples * np.exp(1j * theta)))
    vs.append(u.replace_samples(2.0 * u.samples))
    return _recover_scalars(u, vs, args.n_doppler, **tol)


def _suite_collinearity(args, tol: dict) -> list[CheckReport]:
    u = _waveforms(args.family)[0]
    v = u.replace_samples(3j * u.samples)
    return _collinearity_checks([(u, v), (u, u)], args.n_doppler, **tol)


def _suite_trace_reduction(args, tol: dict) -> list[CheckReport]:
    reduced = trace_reduction_check(
        _family_set("gaussian", args.M, args.seed), args.gamma, args.n_doppler, **tol
    )
    refused = trace_reduction_check(
        _waveforms("subcarriers", args.M), args.gamma, args.n_doppler, **tol
    )
    return [reduced, refused]


def _suite_sym_J(args, tol: dict) -> list[CheckReport]:
    u = _waveforms(args.family, **_ROTATION)[0]
    return [verify_fourier_rotation(u, **tol)]


def _suite_sym_mirror(args, tol: dict) -> list[CheckReport]:
    u = _waveforms(args.family)[0]
    v = chirp_multiply(heisenberg_shift(u, HeisenbergPoint(4 * u.dt, 0.5)), 1.0)
    return [verify_mirror(u, v, args.n_doppler, **tol)]


def _suite_sym_lfm(args, tol: dict) -> list[CheckReport]:
    u = _waveforms(args.family)[0]
    rate = _aligned_chirp_rate(u, args.n_doppler)
    return [verify_lfm_shear(u, rate=rate, n_doppler=args.n_doppler, **tol)]


def _suite_sym_dilate(args, tol: dict) -> list[CheckReport]:
    # the smooth family: rect-envelope spectra alias under compression
    u = _waveforms("gaussian")[0]
    return [verify_dilation(u, b=2.0, n_doppler=args.n_doppler, **tol)]


def _suite_sym_mimo(args, tol: dict) -> list[CheckReport]:
    out = []
    rot_set = _waveforms("subcarriers", 2, **_ROTATION)
    out.append(
        verify_mimo_symmetry(rot_set, args.gamma, 0.25, 0.25, verify_fourier_rotation, **tol)
    )
    flat_set = _waveforms("subcarriers", 2)
    out.append(
        verify_mimo_symmetry(flat_set, args.gamma, args.fs, args.fsp, verify_mirror,
                             n_doppler=args.n_doppler, **tol)
    )
    rate = _aligned_chirp_rate(flat_set[0], args.n_doppler)
    out.append(
        verify_mimo_symmetry(flat_set, args.gamma, args.fs, args.fsp, verify_lfm_shear,
                             rate=rate, n_doppler=args.n_doppler, **tol)
    )
    smooth = _family_set("gaussian", 2, args.seed)
    out.append(
        verify_mimo_symmetry(smooth, args.gamma, args.fs, args.fsp, verify_dilation,
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

def cmd_gen(args) -> int:
    waves = _waveforms(args.family, args.M, args.T, args.dt, args.pad, args.sigma,
                       args.half_width, args.rate)
    out = Path(args.out)
    paths = ([out.with_name(f"{out.stem}{m}{out.suffix}") for m in range(len(waves))]
             if args.family == "subcarriers" else [out])
    # one write group: if any file fails, the set's others are deleted too
    io_formats._write_signals(list(zip(paths, waves)), binary=args.binary)
    for path, w in zip(paths, waves):
        print(f"wrote {path} n={w.n} dt={w.dt:.12g} t0={w.t0:.12g} energy={w.energy():.12g}")
    return 0


def _write_outputs(args, blocks, tau_axis: np.ndarray, nu_axis: np.ndarray) -> complex:
    """Feed the surface's (first row, block) pairs to every requested output
    file and return its value at the origin."""
    return io_formats.write_surface_blocks(
        blocks, tau_axis, nu_axis, sur1=args.out, csv=args.csv, ppm=args.ppm,
        db_floor=args.db_floor, scaling="linear" if args.linear else "db",
    )


def _doppler_bins(args, n: int) -> int:
    """--n-doppler, else 1024 bins, or n rounded up to even for a signal
    longer than that: the default of af and mimo, which take any length."""
    return max(1024, n + n % 2) if args.n_doppler is None else args.n_doppler


def _cross_surface(args, label: str, pairs: list[tuple[SampledSignal, SampledSignal]]) -> int:
    """Write the surface sum_i chi(u_i, v_i) of the signal pairs to every
    requested output and print its line.  The surface is built one block of
    lag rows at a time and never held whole."""
    blocks = _ambiguity_blocks(pairs, _doppler_bins(args, pairs[0][0].n))
    origin = _write_outputs(args, blocks, blocks.tau_axis, blocks.nu_axis)
    print(f"{label} n_lag={blocks.tau_axis.size} n_doppler={blocks.n_doppler} "
          f"origin={origin.real:.12g}{origin.imag:+.12g}j")
    return 0


def cmd_af(args) -> int:
    u = io_formats.read_signal(args.u)
    v = io_formats.read_signal(args.v) if args.v else u
    if args.wigner:
        blocks = _wigner_blocks(u, v, args.n_freq)
        _write_outputs(args, blocks, blocks.tau_axis, blocks.nu_axis)
        print(f"wigner n_time={blocks.tau_axis.size} n_freq={blocks.n_doppler}")
        return 0
    return _cross_surface(args, "af", [(u, v)])


def cmd_mimo(args) -> int:
    waves = [io_formats.read_signal(p) for p in args.inputs]
    if args.slice_spatial:
        grid = mimo_slice_spatial(waves, args.gamma, args.tau, args.nu, args.K,
                                  _doppler_bins(args, waves[0].n))
        fs_axis = np.arange(args.K) * (1.0 / args.K)
        _write_outputs(args, [(0, grid)], fs_axis, fs_axis)
        print(f"spatial-slice K={args.K} tau={args.tau:.12g} nu={args.nu:.12g}")
        return 0
    if args.spatial_integral:
        # the trace: one surface of the M self pairs' summed lag products
        return _cross_surface(args, "spatial-integral", _trace_pairs(waves, args.gamma))
    # the beam slice is the cross-ambiguity of the beamformed pair
    return _cross_surface(args, "mimo-slice", [mimo_beams(waves, args.gamma, args.fs, args.fsp)])


def cmd_verify(args) -> int:
    if args.tol is not None and not 0 <= args.tol < math.inf:
        # a negative or nan tolerance fails every check, an infinite one
        # passes every check
        raise InvalidParameterError(f"--tol must be finite and >= 0, got {args.tol}")
    if args.seed < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {args.seed}")
    # without --tol every check keeps its own tolerance
    tol = {} if args.tol is None else {"tol": args.tol}
    # `all` expands in place; a name given twice runs once
    names = dict.fromkeys(n for s in args.suite for n in (_SUITE_FUNCS if s == "all" else [s]))
    passed = True
    refusals: list[str] = []
    # the report opens before any suite runs, so a path that cannot be
    # written exits 2 before a line is printed.  A suite that refuses its
    # input is recorded and the others still run and print; one refusal
    # makes the run exit 2, and the write group then deletes the report
    with io_formats._new_files() as new:
        report = new(args.report, "w")[0] if args.report else None
        for name in names:
            try:
                reports = _SUITE_FUNCS[name](args, tol)
            except (MimoafError, MemoryError) as exc:
                refusals.append(f"{name}: {exc}")
                continue
            lines = "".join(r.format_line() + "\n" for r in reports)
            sys.stdout.write(lines)
            sys.stdout.flush()
            if report is not None:
                report.write(lines)
            passed = passed and all(r.passed for r in reports)
        if refusals:
            raise MimoafError("; ".join(refusals))
    return 0 if passed else 1


# ------------------------------------------------------------------ parsing

@cache
def _config_parser() -> argparse.ArgumentParser:
    # main reads --config with this parser before the subcommand's own, so the
    # flag may stand before or after the subcommand
    p = argparse.ArgumentParser(prog="mimoaf", add_help=False, allow_abbrev=False)
    p.add_argument("--config", action="append", help="key=value defaults file (repeatable)")
    return p


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: each add_argument sizes a help formatter to the
    # terminal, about 2 ms in all, and parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="mimoaf",
        description="Delay-Doppler ambiguity surfaces and their identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that several subcommands share with one default (verify, whose
    # grids are fixed, keeps its own --n-doppler of 1024)
    config = _config_parser()
    doppler = argparse.ArgumentParser(add_help=False)
    doppler.add_argument("--n-doppler", type=int, default=None,
                         help="Doppler bins (default 1024, or n rounded up to even past it)")
    steering = argparse.ArgumentParser(add_help=False)
    steering.add_argument("--gamma", type=float, default=1.0)
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("-o", "--out", help="SUR1 output path")
    outputs.add_argument("--csv", help="CSV output path")
    outputs.add_argument("--ppm", help="grayscale heatmap output path")
    outputs.add_argument("--db-floor", type=float, default=-60.0)
    outputs.add_argument("--linear", action="store_true", help="linear heatmap scaling")

    g = sub.add_parser("gen", parents=[config], help="generate waveform files")
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

    a = sub.add_parser("af", parents=[config, doppler, outputs],
                       help="compute an ambiguity or Wigner surface")
    a.add_argument("--u", required=True, help="first signal file")
    a.add_argument("--v", help="second signal file (default: self surface)")
    a.add_argument("--wigner", action="store_true", help="Wigner distribution instead")
    a.add_argument("--n-freq", type=int, default=None, help="Wigner frequency bins")
    a.set_defaults(func=cmd_af)

    m = sub.add_parser("mimo", parents=[config, doppler, steering, outputs],
                       help="MIMO beam slices and the spatial integral")
    m.add_argument("--inputs", nargs="+", required=True, help="waveform files")
    m.add_argument("--fs", type=float, default=0.0)
    m.add_argument("--fsp", type=float, default=0.0)
    mode = m.add_mutually_exclusive_group()
    mode.add_argument("--spatial-integral", action="store_true",
                      help="trace surface instead of a single slice")
    mode.add_argument("--slice-spatial", action="store_true",
                      help="K x K spatial grid at one (tau, nu) point")
    m.add_argument("--K", type=int, default=64, help="spatial grid points (--slice-spatial)")
    m.add_argument("--tau", type=float, default=0.0)
    m.add_argument("--nu", type=float, default=0.0)
    m.set_defaults(func=cmd_mimo)

    v = sub.add_parser("verify", parents=[config, steering], help="run identity-check suites")
    v.add_argument("--n-doppler", type=int, default=1024)
    v.add_argument("--suite", required=True, nargs="+", choices=SUITES,
                   help="one or more suites, run in the order given")
    v.add_argument("--family", default="gaussian", choices=FAMILIES)
    v.add_argument("--M", type=int, default=2)
    v.add_argument("--probes", type=int, default=8)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--fs", type=float, default=0.3)
    v.add_argument("--fsp", type=float, default=0.7)
    v.add_argument("--tol", type=float, default=None,
                   help="replace each check's own tolerance (internal gates stay fixed)")
    v.add_argument("-o", "--report", help="write the report lines to this file")
    v.set_defaults(func=cmd_verify)
    return parser


@cache
def _flag_actions() -> dict[str, argparse.Action]:
    """Each subcommand flag's argparse action, by option string.  A flag
    that several subcommands share takes values alike in each."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt: a for p in sub.choices.values() for a in p._actions for opt in a.option_strings}


# a "#" at the start of a line or after whitespace, and the rest of the line
_COMMENT = re.compile(r"(?:^|\s)#.*")


def _config_tokens(paths: list[str]) -> list[str]:
    """The flags the config files set, each typed by its argparse action: a
    switch takes ``true`` (the bare flag) or ``false`` (nothing), a flag
    with nargs="+" the value's words, any other flag the whole value.  The
    entries are merged in file order, so a later file's value for a key
    replaces an earlier one's, and each key is then given once."""
    actions = _flag_actions()
    entries: dict[str, list[str]] = {}
    for path in paths:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise MimoafError(
                f"--config {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
        for number, raw in enumerate(text.splitlines(), 1):
            line = _COMMENT.sub("", raw, count=1).strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            flag = "--" + key.replace("_", "-")
            action = actions.get(flag)
            # an empty key would give the token "--", argparse's end of
            # options, and a spaced, dashed or abbreviated one tokens it
            # misreads
            if not sep or action is None:
                raise MimoafError(
                    f"--config {path}: line {number}: expected key=value with a key "
                    f"of one long flag name without dashes, got {raw!r}"
                )
            if action.nargs == 0:
                if value.lower() not in ("true", "false"):
                    raise MimoafError(
                        f"--config {path}: line {number}: {key} is a switch and takes "
                        f"true or false, got {value!r}"
                    )
                entries[flag] = [flag] if value.lower() == "true" else []
            else:
                entries[flag] = [flag, *(value.split() if action.nargs == "+" else [value])]
    return [token for tokens in entries.values() for token in tokens]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    known, argv = _config_parser().parse_known_args(argv)
    try:
        if known.config is not None:
            # the subcommand is the first token left, as the top-level parser
            # has no flag but --help; a later file overrides an earlier one,
            # and explicit flags, parsed last, win
            argv[1:1] = _config_tokens(known.config)
        args = parser.parse_args(argv)
        if args.config is not None:
            # an abbreviation or a config-file line: the file would go unread
            raise MimoafError(f"--config {args.config[0]}: spell the flag out on the command line")
        return args.func(args)
    except (MimoafError, OSError, MemoryError) as exc:
        # a grid too large to allocate is a bad input, not a failed identity
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
