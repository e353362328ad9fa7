import argparse
import errno
import hashlib
import math
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from mimoaf import (
    CANONICAL_SIGMA,
    FileFormatError,
    InvalidParameterError,
    SampledSignal,
    canonical_gaussian,
    cross_ambiguity,
    gen_gaussian,
    gen_rect,
    gen_subcarrier_set,
    inner_product,
    mimo_ambiguity,
    spatial_integral,
    verify_dilation,
    wigner,
)
from mimoaf import ambiguity, cli, io_formats
from mimoaf.ambiguity import AmbiguitySurface
from mimoaf.io_formats import (
    read_signal,
    read_surface,
    read_surface_csv,
    write_ppm,
    write_signal,
    write_surface,
    write_surface_blocks,
    write_surface_csv,
)
from mimoaf.properties import CheckReport

from conftest import traced_peak


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mimoaf", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


# -------------------------------------------------------------- file formats

def test_signal_text_roundtrip(tmp_path):
    u = canonical_gaussian()
    p = tmp_path / "u.sig"
    write_signal(p, u)
    back = read_signal(p)
    assert back.n == u.n
    assert back.dt == u.dt and back.t0 == u.t0
    assert np.array_equal(back.samples, u.samples)  # 17 significant digits


def test_signal_binary_roundtrip(tmp_path):
    u = canonical_gaussian()
    p = tmp_path / "u.sigb"
    write_signal(p, u, binary=True)
    back = read_signal(p)
    assert np.array_equal(back.samples, u.samples)
    assert back.dt == u.dt


def test_surface_roundtrip(tmp_path):
    s = cross_ambiguity(gen_rect(1.0, 1 / 64))
    p = tmp_path / "s.sur"
    write_surface(p, s)
    back = read_surface(p)
    assert np.array_equal(back.values, s.values)
    assert np.allclose(back.tau_axis, s.tau_axis, atol=1e-15)
    assert np.allclose(back.nu_axis, s.nu_axis, atol=1e-15)


@pytest.mark.parametrize("kind", ["sur1", "sigb"])
def test_binary_readers_copy_the_body_once(kind, tmp_path):
    # the file's bytes plus one array of the values: no slice of the body
    # and no second conversion
    rng = np.random.default_rng(0)
    if kind == "sur1":
        shape, read = (256, 2048), read_surface
    else:
        shape, read = (2**20,), read_signal
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    path = tmp_path / "x.bin"
    if kind == "sur1":
        write_surface(path, AmbiguitySurface(values, np.arange(256.0), np.arange(2048.0)))
    else:
        write_signal(path, SampledSignal(values, 1.0, 0.0), binary=True)
    back, peak = traced_peak(read, path)
    assert np.array_equal(back.values if kind == "sur1" else back.samples, values)
    assert peak <= 2.1 * values.nbytes


def _sur1_bytes(values, tau0, dtau, nu0, dnu):
    """SUR1 built from the documented layout: header, then (re, im) f64 pairs."""
    head = b"SUR1" + struct.pack("<II", *values.shape) + struct.pack("<dddd", tau0, dtau, nu0, dnu)
    return head + np.stack([values.real, values.imag], axis=-1).astype("<f8").tobytes()


def test_surface_bytes_match_layout(tmp_path):
    u0, u1 = gen_subcarrier_set(2, 1.0, 1 / 64)
    s = cross_ambiguity(u0, u1, n_doppler=256)
    axes = (float(s.tau_axis[0]), s.d_tau, float(s.nu_axis[0]), s.d_nu)
    write_surface(tmp_path / "s.sur", s)
    assert (tmp_path / "s.sur").read_bytes() == _sur1_bytes(s.values, *axes)
    flipped = s.values[::-1, :]  # a non-contiguous view: the lag axis reversed
    views = {"flipped": flipped, "strided": flipped[::2, 1::3], "real": np.abs(flipped)}
    for name, view in views.items():
        n_tau, n_nu = view.shape
        write_surface_blocks([(0, view)], axes[0] + axes[1] * np.arange(n_tau),
                             axes[2] + axes[3] * np.arange(n_nu), sur1=tmp_path / f"{name}.sur")
        assert (tmp_path / f"{name}.sur").read_bytes() == _sur1_bytes(view, *axes), name


@pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
def test_one_point_surface_axis_is_refused(shape, tmp_path):
    # an axis of one point has no step, which energy() and every writer need
    values = np.ones(shape, dtype=np.complex128)
    tau, nu = np.arange(shape[0]) / 2, np.arange(shape[1]) / 4
    with pytest.raises(InvalidParameterError):
        AmbiguitySurface(values, tau, nu)
    with pytest.raises(FileFormatError):
        write_surface_blocks([(0, values)], tau, nu, sur1=tmp_path / "w.sur")
    assert not (tmp_path / "w.sur").exists()
    path = tmp_path / "s.sur"
    path.write_bytes(_sur1_bytes(values, 0.0, 0.5, 0.0, 0.25))
    with pytest.raises(FileFormatError):
        read_surface(path)


@pytest.mark.parametrize("first, step", [(math.nan, 0.5), (math.inf, 0.5), (0.0, 0.0), (0.0, -0.5)])
def test_surface_axis_off_the_reals_or_not_ascending_is_refused(first, step, tmp_path):
    # each reader used to return a surface whose axis was [nan, nan] or [0, 0]
    values = np.ones((2, 2), dtype=np.complex128)
    good = (0.0, 0.5)
    for tau, nu in (((first, step), good), (good, (first, step))):
        with pytest.raises(InvalidParameterError):
            AmbiguitySurface(values, tau[0] + tau[1] * np.arange(2), nu[0] + nu[1] * np.arange(2))
        sur, csv = tmp_path / "s.sur", tmp_path / "s.csv"
        sur.write_bytes(_sur1_bytes(values, *tau, *nu))
        csv.write_text(f"# n_tau=2 n_nu=2\n# tau0={tau[0]} dtau={tau[1]} nu0={nu[0]} dnu={nu[1]}\n"
                       "tau,nu,re,im\n" + "0,0,1,0\n" * 4)
        for reader, path in ((read_surface, sur), (read_surface_csv, csv)):
            with pytest.raises(InvalidParameterError, match="axis"):
                reader(path)


_BAD_SIGNAL_FILES = {
    "truncated binary signal": b"SIGB" + struct.pack("<I", 1),
    "expected 3 samples, found 2": b"SIGB" + struct.pack("<Idd", 3, 0.5, 0.0) + bytes(32),
    "neither SIGB nor text": b"\xff\xfe",
    "bad SIG1 header": b"n=two\ndt=0.5\nt0=0\n1,2\n",
    "header says 3 samples, found 2": b"n=3\ndt=0.5\nt0=0\n1,2\n3,4\n",
    "sample lines need 2 fields, found 3": b"n=2\ndt=0.5\nt0=0\n1,2,3\n4,5,6\n",
}


@pytest.mark.parametrize("message", _BAD_SIGNAL_FILES)
def test_malformed_signal_file_is_refused(message, tmp_path, capsys):
    path = tmp_path / "bad.sig"
    path.write_bytes(_BAD_SIGNAL_FILES[message])
    with pytest.raises(FileFormatError, match=message):
        read_signal(path)
    assert cli.main(["af", "--u", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("blob, message", [
    (b"SUR1" + struct.pack("<II", 2, 2), "truncated SUR1 header"),
    (_sur1_bytes(np.ones((2, 2)), 0.0, 0.5, 0.0, 0.25)[:-16], "payload size mismatch"),
])
def test_malformed_sur1_is_refused(blob, message, tmp_path):
    path = tmp_path / "bad.sur"
    path.write_bytes(blob)
    with pytest.raises(FileFormatError, match=message):
        read_surface(path)


def test_surface_csv_roundtrip(tmp_path):
    s = cross_ambiguity(gen_rect(1.0, 1 / 64))
    p = tmp_path / "s.csv"
    write_surface_csv(p, s)
    back = read_surface_csv(p)
    assert np.array_equal(back.values, s.values)


def test_reader_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.sig"
    bad.write_text("not a signal\n")
    with pytest.raises(FileFormatError):
        read_signal(bad)
    bad2 = tmp_path / "junk.sur"
    bad2.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FileFormatError):
        read_surface(bad2)


def test_ppm_header_and_determinism(tmp_path):
    s = cross_ambiguity(gen_rect(1.0, 1 / 64))
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(p1, s.values)
    write_ppm(p2, s.values)
    blob = p1.read_bytes()
    n_lag, n_dop = s.values.shape
    assert blob.startswith(f"P5\n{n_dop} {n_lag}\n255\n".encode())
    assert blob == p2.read_bytes()
    for db_floor in (3.0, math.nan, -math.inf):
        with pytest.raises(FileFormatError):
            write_ppm(tmp_path / "c.ppm", s.values, db_floor=db_floor)
    with pytest.raises(FileFormatError):
        write_ppm(tmp_path / "c.ppm", np.ones((2, 2)), scaling="log")
    assert not (tmp_path / "c.ppm").exists()
    # an all-zero surface has no peak to scale by: every pixel is 0
    for scaling in ("db", "linear"):
        write_ppm(p1, np.zeros((2, 3)), scaling=scaling)
        assert p1.read_bytes() == b"P5\n3 2\n255\n" + bytes(6), scaling


# ---------------------------------------------------------------- cli: gen

def test_gen_rect_writes_unit_energy(tmp_path):
    out = tmp_path / "r.sig"
    res = run_cli("gen", "--family", "rect", "-o", out)
    assert res.returncode == 0
    assert "energy=1" in res.stdout
    u = read_signal(out)
    assert abs(u.energy() - 1.0) <= 1e-12


def test_gen_subcarriers_one_file_per_element(tmp_path):
    out = tmp_path / "s.sig"
    res = run_cli("gen", "--family", "subcarriers", "--M", "3", "-o", out)
    assert res.returncode == 0
    waves = [read_signal(tmp_path / f"s{m}.sig") for m in range(3)]
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            assert abs(inner_product(waves[i], waves[j]) - want) <= 1e-10


def test_gen_subcarriers_that_cannot_open_leave_no_file(tmp_path, capsys):
    # s1.sig is a directory: s0.sig, opened before it, is deleted, and no
    # "wrote" line is printed for it
    (tmp_path / "s1.sig").mkdir()
    argv = ["gen", "--family", "subcarriers", "--M", "3", "-o", str(tmp_path / "s.sig")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    assert [p.name for p in tmp_path.iterdir()] == ["s1.sig"]


@pytest.mark.parametrize("binary", [False, True], ids=["sig1", "sigb"])
def test_gen_subcarriers_failed_write_leaves_no_file(binary, tmp_path, monkeypatch, capsys):
    # the second file's first write fails: the first file, already written,
    # is deleted with it, an older one in its place included
    (tmp_path / "s0.sig").write_bytes(b"an older output")
    files = []

    def failing_open(path, mode, **kwargs):
        limit = 0 if Path(path).name == "s1.sig" else math.inf
        files.append(_FailingFile(OSError(errno.ENOSPC, "No space left on device"), path,
                                  mode, limit=limit, **kwargs))
        return files[-1]

    monkeypatch.setattr(io_formats, "open", failing_open, raising=False)
    argv = ["gen", "--family", "subcarriers", "--M", "3", "-o", str(tmp_path / "s.sig")]
    assert cli.main(argv + ["--binary"] * binary) == 2
    out, err = capsys.readouterr()
    assert out == "" and "No space left on device" in err
    assert [f.writes for f in files] == [2 if binary else 1, 1]
    assert list(tmp_path.iterdir()) == []


def test_gen_malformed_flag_exits_2(tmp_path):
    res = run_cli("gen", "--family", "klingon", "-o", tmp_path / "x.sig")
    assert res.returncode == 2
    assert not (tmp_path / "x.sig").exists()


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a.sig", tmp_path / "b.sig"
    for out in (a, b):
        res = run_cli("gen", "--family", "lfm", "--rate", "6", "-o", out)
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------- cli: af

def test_af_origin_is_energy(tmp_path):
    sig = tmp_path / "g.sig"
    run_cli("gen", "--family", "gaussian", "-o", sig)
    sur = tmp_path / "g.sur"
    res = run_cli("af", "--u", sig, "-o", sur)
    assert res.returncode == 0
    token = [t for t in res.stdout.split() if t.startswith("origin=")][0]
    origin = complex(token.removeprefix("origin="))
    assert abs(origin - 1.0) <= 1e-9
    s = read_surface(sur)
    assert abs(s.value_at(0.0, 0.0) - 1.0) <= 1e-9


def test_af_csv_matches_surface(tmp_path):
    sig = tmp_path / "r.sig"
    run_cli("gen", "--family", "rect", "-o", sig)
    sur, csv = tmp_path / "r.sur", tmp_path / "r.csv"
    res = run_cli("af", "--u", sig, "-o", sur, "--csv", csv)
    assert res.returncode == 0
    assert np.array_equal(read_surface(sur).values, read_surface_csv(csv).values)


def test_af_wigner_and_ppm(tmp_path):
    sig = tmp_path / "g.sig"
    run_cli("gen", "--family", "gaussian", "-o", sig)
    sur, ppm = tmp_path / "w.sur", tmp_path / "w.ppm"
    res = run_cli("af", "--u", sig, "--wigner", "-o", sur, "--ppm", ppm)
    assert res.returncode == 0
    assert "wigner" in res.stdout
    assert ppm.read_bytes().startswith(b"P5\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)],
                         ids=["nan", "inf", "-inf", "nan-imag"])
def test_heatmap_of_a_non_finite_cell_is_refused(bad, tmp_path):
    # a heatmap scaled by a nan or inf peak came out all black, with numpy
    # warnings; write_ppm refuses before its file opens, so an older file
    # keeps its bytes, and the streamed heatmap refuses once its last block
    # is in, and the write group deletes every output
    values = np.ones((3, 4), dtype=complex)
    values[1, 2] = bad
    old = tmp_path / "old.ppm"
    old.write_bytes(b"older bytes")
    with pytest.raises(InvalidParameterError, match="finite"):
        write_ppm(old, values)
    assert old.read_bytes() == b"older bytes"
    outs = {"sur1": tmp_path / "s.sur", "csv": tmp_path / "s.csv", "ppm": tmp_path / "s.ppm"}
    with pytest.raises(InvalidParameterError, match="finite"):
        write_surface_blocks([(0, values[:2]), (2, values[2:])], np.arange(3.0), np.arange(4.0),
                             **outs)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.ppm"]


def test_af_ppm_nan_db_floor_exits_2(tmp_path, capsys):
    sig, ppm = tmp_path / "r.sig", tmp_path / "r.ppm"
    write_signal(sig, gen_rect(1.0, 1 / 64))
    assert cli.main(["af", "--u", str(sig), "--ppm", str(ppm), "--db-floor", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not ppm.exists()


@pytest.mark.parametrize("floor", ["nan", "5"])
@pytest.mark.parametrize("command", ["af", "mimo"])
def test_bad_db_floor_opens_no_output(command, floor, tmp_path, capsys):
    # the floor is refused before any output opens; --linear ignores it
    paths = _subcarrier_files(tmp_path, 2, 0.5)
    argv = (["af", "--u", str(paths[0])] if command == "af"
            else ["mimo", "--inputs", *map(str, paths)])
    argv += ["--n-doppler", "256", "--db-floor", floor]
    outs = [tmp_path / name for name in ("x.sur", "x.csv", "x.ppm")]
    argv += ["-o", str(outs[0]), "--csv", str(outs[1]), "--ppm", str(outs[2])]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    assert cli.main(argv + ["--linear"]) == 0
    assert all(out.stat().st_size > 0 for out in outs)


def test_af_missing_input_exits_2(tmp_path):
    res = run_cli("af", "--u", tmp_path / "nope.sig")
    assert res.returncode == 2
    assert res.stderr != ""


def test_af_window_start_past_float_range_exits_2(tmp_path, capsys):
    # t0/dt = 1e300 / 1e-300 overflows: the surface is refused before any
    # output opens, where the window phase would be nan
    sig, sur = tmp_path / "far.sigb", tmp_path / "far.sur"
    write_signal(sig, SampledSignal(np.ones(8, dtype=np.complex128), 1e-300, 1e300), binary=True)
    assert cli.main(["af", "--u", str(sig), "-o", str(sur)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not sur.exists()


@pytest.mark.parametrize("text, extra, axis", [
    ("n=4\ndt=1\nt0=1e300\n" + "1,0\n" * 4, ["--wigner"], "delay"),
    ("n=2\ndt=1e308\nt0=0\n" + "1,0\n" * 2, [], "Doppler"),
], ids=["wigner-times-past-resolution", "doppler-step-underflow"])
def test_streamed_surface_with_collapsed_axis_exits_2(text, extra, axis, tmp_path, capsys):
    # times 1e300 + k cannot be told apart in float64, and 1/(N 1e308)
    # underflows to a Doppler axis of zeros: the streamed surface is refused
    # before its buffers and files, as the in-memory one is
    sig, sur = tmp_path / "far.sig", tmp_path / "far.sur"
    sig.write_text(text)
    sur.write_bytes(b"an older surface")
    assert cli.main(["af", "--u", str(sig), *extra, "-o", str(sur)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: the {axis} axis must be finite and strictly ascending\n"
    assert sur.read_bytes() == b"an older surface"


@pytest.mark.parametrize("argv", [
    ["af", "--u", "{0}"],
    ["af", "--u", "{0}", "--wigner"],
    ["mimo", "--inputs", "{0}", "{0}"],
    ["mimo", "--inputs", "{0}", "{0}", "--spatial-integral"],
    ["mimo", "--inputs", "{0}", "{0}", "--slice-spatial", "--K", "4"],
], ids=["af", "wigner", "mimo-beam", "mimo-spatial-integral", "mimo-slice-spatial"])
def test_signal_energy_past_float_range_exits_2(argv, tmp_path):
    # 1e200 squared overflows, so every surface of the signal is inf or
    # nan: it is refused with one line, no warning, before any output opens
    sig, sur = tmp_path / "big.sig", tmp_path / "big.sur"
    sig.write_text("n=4\ndt=1\nt0=-2\n" + "1e200,0\n" * 4)
    res = run_cli(*(a.format(sig) for a in argv), "-o", sur)
    assert res.returncode == 2
    assert res.stderr == "error: a signal's energy is past the float range\n"
    assert not sur.exists()


def test_af_determinism(tmp_path):
    sig = tmp_path / "g.sig"
    run_cli("gen", "--family", "gaussian", "-o", sig)
    outs = []
    for tag in ("1", "2"):
        sur, ppm = tmp_path / f"s{tag}.sur", tmp_path / f"p{tag}.ppm"
        res = run_cli("af", "--u", sig, "-o", sur, "--ppm", ppm)
        assert res.returncode == 0
        outs.append((sur.read_bytes(), ppm.read_bytes()))
    assert outs[0] == outs[1]


# ------------------------------------------------- cli: streamed outputs

def _random_signal(n: int, seed: int) -> SampledSignal:
    rng = np.random.default_rng(seed)
    return SampledSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1 / 64, -1.0)


def _assert_cli_writes(argv, surface, label, tmp_path, capsys, flag="--ppm"):
    """argv with -o alone, and with -o beside flag (--ppm or --csv), writes
    the bytes write_surface writes for the surface built whole in memory and
    prints that surface's line."""
    write_surface(tmp_path / "ref.sur", surface)
    reference = (tmp_path / "ref.sur").read_bytes()
    o = surface.value_at(0.0, 0.0)
    line = (f"{label} n_lag={surface.tau_axis.size} n_doppler={surface.n_doppler} "
            f"origin={o.real:.12g}{o.imag:+.12g}j\n")
    for extra in ([], [flag, str(tmp_path / "x.out")]):
        sur = tmp_path / "cli.sur"
        assert cli.main(argv + ["-o", str(sur), *extra]) == 0
        assert sur.read_bytes() == reference
        assert capsys.readouterr().out == line


@pytest.mark.parametrize("n,n_doppler,cross", [
    (256, 1024, False), (256, 1000, True), (255, 1020, True), (2, 4, False),
])
@pytest.mark.parametrize("rows", [None, 5])
def test_streamed_af_matches_in_memory(n, n_doppler, cross, rows, tmp_path,
                                       monkeypatch, capsys):
    u, v = _random_signal(n, 1), _random_signal(n, 2)
    u_path, v_path = tmp_path / "u.sig", tmp_path / "v.sig"
    write_signal(u_path, u)
    write_signal(v_path, v)
    argv = ["af", "--u", str(u_path), "--n-doppler", str(n_doppler)]
    if cross:
        argv += ["--v", str(v_path)]
    surface = cross_ambiguity(u, v if cross else u, n_doppler=n_doppler)
    assert surface.values.nbytes == (2 * n - 1) * n_doppler * 16
    if rows is not None:  # many blocks; at n = 256 lag 0 starts the 52nd
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", rows * 16 * n_doppler)
    _assert_cli_writes(argv, surface, "af", tmp_path, capsys)


@pytest.mark.parametrize("rows", [None, 5])
def test_streamed_mimo_slice_matches_in_memory(rows, tmp_path, monkeypatch, capsys):
    waves = gen_subcarrier_set(3, 1.0, 1 / 128)
    paths = [tmp_path / f"s{m}.sig" for m in range(3)]
    for path, w in zip(paths, waves):
        write_signal(path, w)
    argv = ["mimo", "--inputs", *map(str, paths), "--fs", "0.25", "--fsp", "0.75",
            "--n-doppler", "1000"]
    surface = mimo_ambiguity(waves, 1.0, 0.25, 0.75, n_doppler=1000)
    assert surface.values.shape == (511, 1000)
    if rows is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", rows * 16 * 1000)
    _assert_cli_writes(argv, surface, "mimo-slice", tmp_path, capsys)


@pytest.mark.parametrize("rows", [None, 5])
def test_streamed_wigner_matches_in_memory(rows, tmp_path, monkeypatch, capsys):
    # af --wigner streams the rows of the distribution wigner builds whole
    u, v = _random_signal(255, 1), _random_signal(255, 2)
    u_path, v_path, ref = tmp_path / "u.sig", tmp_path / "v.sig", tmp_path / "ref.sur"
    write_signal(u_path, u)
    write_signal(v_path, v)
    write_surface(ref, wigner(u, v, n_freq=520))
    if rows is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", rows * 16 * 520)
    sur = tmp_path / "cli.sur"
    assert cli.main(["af", "--u", str(u_path), "--v", str(v_path), "--wigner",
                     "--n-freq", "520", "-o", str(sur)]) == 0
    assert sur.read_bytes() == ref.read_bytes()
    assert capsys.readouterr().out == "wigner n_time=255 n_freq=520\n"


def test_af_wigner_csv_lists_the_distributions_axes(tmp_path, capsys):
    # the CSV lines carry the times and frequencies wigner returns, not the
    # axes rebuilt as first value plus k steps
    rng = np.random.default_rng(7)
    u = SampledSignal(rng.standard_normal(7) + 1j * rng.standard_normal(7), 0.3, 0.05)
    sig, csv, ref = tmp_path / "u.sig", tmp_path / "cli.csv", tmp_path / "ref.csv"
    write_signal(sig, u)
    w = wigner(u, n_freq=10)
    write_surface_blocks([(0, w.values)], w.tau_axis, w.nu_axis, csv=ref)
    assert cli.main(["af", "--u", str(sig), "--wigner", "--n-freq", "10", "--csv", str(csv)]) == 0
    assert capsys.readouterr().out == "wigner n_time=7 n_freq=10\n"
    assert csv.read_text() == ref.read_text()


def test_af_wigner_odd_n_freq_exits_2_naming_it(tmp_path, capsys):
    # the Wigner bin count is checked as n_doppler is, and the refusal
    # names the value given
    sig = tmp_path / "u.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    assert cli.main(["af", "--u", str(sig), "--wigner", "--n-freq", "513"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_freq must be an even integer >= 256") and "513" in err


def _subcarrier_files(tmp_path, m: int, T: float) -> list[Path]:
    paths = [tmp_path / f"s{i}.sig" for i in range(m)]
    for path, w in zip(paths, gen_subcarrier_set(m, T, 1 / 128)):
        write_signal(path, w, binary=True)
    return paths


@pytest.mark.parametrize("rows", [None, 5])
def test_streamed_mimo_trace_matches_in_memory(rows, tmp_path, monkeypatch, capsys):
    paths = _subcarrier_files(tmp_path, 3, 0.5)
    argv = ["mimo", "--inputs", *map(str, paths), "--spatial-integral", "--n-doppler", "400"]
    waves = gen_subcarrier_set(3, 0.5, 1 / 128)
    surface = spatial_integral(waves, 1.0, n_doppler=400)
    assert surface.values.shape == (255, 400)
    if rows is not None:
        monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", rows * 16 * 400)
    _assert_cli_writes(argv, surface, "spatial-integral", tmp_path, capsys, flag="--csv")


def test_streamed_mimo_trace_peak_memory(tmp_path, capsys):
    # mimo --spatial-integral -o alone holds one block of the 32 MiB trace
    # and two blocks of lag products, not the trace and a self surface
    paths = _subcarrier_files(tmp_path, 2, 2.0)
    out = tmp_path / "tr.sur"
    rc, peak = traced_peak(cli.main, [
        "mimo", "--inputs", *map(str, paths), "--spatial-integral",
        "--n-doppler", "2048", "-o", str(out),
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith("spatial-integral n_lag=1023 n_doppler=2048 ")
    assert out.stat().st_size == 44 + 1023 * 2048 * 16
    out.unlink()
    assert peak <= 16 * 2**20


class _FailingFile:
    """A file that takes the first `limit` writes (by default the SUR1 header
    and the first block), then raises the given error."""

    def __init__(self, error, path, mode, limit=2, **kwargs):
        self.error = error
        self.fh = open(path, mode, **kwargs)
        self.writes = 0
        self.limit = limit

    def fileno(self):
        return self.fh.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > self.limit:
            raise self.error
        return self.fh.write(data)


class _FailingFinish(_FailingFile):
    """A _FailingFile that takes every write, then raises its error when it
    is cut to length."""

    def __init__(self, error, path, mode, **kwargs):
        super().__init__(error, path, mode, limit=math.inf, **kwargs)

    def truncate(self):
        raise self.error


@pytest.mark.parametrize("failing", [".sur", ".csv", ".ppm"], ids=["sur1", "csv", "ppm"])
def test_failed_finish_leaves_no_file(failing, tmp_path, monkeypatch, capsys):
    # the outputs finish in order of opening, SUR1, CSV, PPM: those before
    # the one that fails to be cut are already cut and marked, and all
    # three go
    sig = tmp_path / "r.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    suffixes = [".sur", ".csv", ".ppm"]
    outs = [tmp_path / f"r{suffix}" for suffix in suffixes]
    for out in outs:
        out.write_bytes(b"an older output")
    files = []

    def failing_open(path, mode, **kwargs):
        if Path(path).suffix != failing:
            return open(path, mode, **kwargs)
        files.append(_FailingFinish(OSError(errno.EIO, "Input/output error"), path, mode,
                                    **kwargs))
        return files[-1]

    marked = []
    pwrite = os.pwrite

    def recorded_pwrite(fd, data, offset):
        marked.append(data)
        return pwrite(fd, data, offset)

    monkeypatch.setattr(io_formats, "open", failing_open, raising=False)
    monkeypatch.setattr(os, "pwrite", recorded_pwrite)
    argv = ["af", "--u", str(sig), "--n-doppler", "256",
            "-o", str(outs[0]), "--csv", str(outs[1]), "--ppm", str(outs[2])]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Input/output error" in err
    assert len(files) == 1 and files[0].writes >= 2
    assert marked == [b"SUR1", b"#", b"P5"][: suffixes.index(failing)]
    assert sorted(tmp_path.iterdir()) == [sig]


def test_output_that_cannot_open_deletes_the_opened_ones(tmp_path, capsys):
    # the PPM path's directory is missing: the SUR1 file, opened before it,
    # is deleted
    sig = tmp_path / "r.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    argv = ["af", "--u", str(sig), "-o", str(tmp_path / "new.sur"),
            "--ppm", str(tmp_path / "missing_dir" / "x.ppm")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(tmp_path.iterdir()) == [sig]


@pytest.mark.parametrize("second", ["csv", "ppm"])
def test_one_path_for_two_outputs_exits_2(second, tmp_path, capsys):
    # two outputs on one file would leave only the later one's bytes there;
    # the command is refused before any file opens, whatever the spelling
    sig = tmp_path / "g.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    (tmp_path / "sub").mkdir()
    argv = ["af", "--u", str(sig), "-o", str(tmp_path / "a.out"),
            f"--{second}", str(tmp_path / "sub" / ".." / "a.out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [sig, tmp_path / "sub"]


@pytest.mark.parametrize("error", [
    OSError(errno.ENOSPC, "No space left on device"), MemoryError("Unable to allocate"),
], ids=["os-error", "memory-error"])
@pytest.mark.parametrize("failing,limit", [
    (".sur", 2), (".csv", 2), (".ppm", 1),
], ids=["sur1", "csv", "ppm"])
def test_failed_stream_leaves_no_file(failing, limit, error, tmp_path, monkeypatch, capsys):
    # whichever output fails part way (SUR1 at its second block, CSV at its
    # second row, PPM at its pixels), every output of the command is deleted
    sig = tmp_path / "r.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    outs = [tmp_path / f"r{suffix}" for suffix in (".sur", ".csv", ".ppm")]
    for out in outs:
        out.write_bytes(b"an older output")
    monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", 7 * 16 * 256)
    files = {}

    def failing_open(path, mode, **kwargs):
        files[Path(path).suffix] = _FailingFile(
            error, path, mode, limit if Path(path).suffix == failing else math.inf, **kwargs
        )
        return files[Path(path).suffix]

    monkeypatch.setattr(io_formats, "open", failing_open, raising=False)
    argv = ["af", "--u", str(sig), "--n-doppler", "256",
            "-o", str(outs[0]), "--csv", str(outs[1]), "--ppm", str(outs[2])]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert sorted(files) == [".csv", ".ppm", ".sur"]
    assert files[failing].writes == limit + 1
    assert sorted(tmp_path.iterdir()) == [sig]


def test_failed_trace_stream_leaves_no_file(tmp_path, monkeypatch, capsys):
    paths = _subcarrier_files(tmp_path, 2, 1.0)
    out = tmp_path / "tr.sur"
    out.write_bytes(b"an older surface")
    monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", 7 * 16 * 1024)
    files = []

    def failing_open(path, mode, **kwargs):
        files.append(_FailingFile(OSError(errno.ENOSPC, "No space left on device"), path, mode,
                                  **kwargs))
        return files[-1]

    monkeypatch.setattr(io_formats, "open", failing_open, raising=False)
    assert cli.main(["mimo", "--inputs", *map(str, paths), "--spatial-integral",
                     "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert [f.writes for f in files] == [3]
    assert sorted(tmp_path.iterdir()) == sorted(paths)


def test_trace_stream_checks_gamma_before_opening(tmp_path, monkeypatch, capsys):
    # a half-wavelength array has no trace identity: exit 2, file untouched
    paths = _subcarrier_files(tmp_path, 2, 1.0)
    out = tmp_path / "tr.sur"
    out.write_bytes(b"an older surface")
    opened = []
    monkeypatch.setattr(io_formats, "open", lambda *a, **k: opened.append(a), raising=False)
    assert cli.main(["mimo", "--inputs", *map(str, paths), "--spatial-integral",
                     "--gamma", "0.5", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert opened == []
    assert out.read_bytes() == b"an older surface"


@pytest.mark.parametrize("writer", [
    write_surface, write_surface_csv, lambda path, s: write_ppm(path, s.values),
])
def test_failed_surface_write_leaves_no_file(writer, tmp_path, monkeypatch):
    # the header goes through; the SUR1 body, first CSV row or pixels fail
    s = cross_ambiguity(gen_rect(1.0, 1 / 16))
    out = tmp_path / "s.out"
    out.write_bytes(b"an older surface")
    error = OSError(errno.ENOSPC, "No space left on device")
    files = []

    def failing_open(path, mode, **kwargs):
        files.append(_FailingFile(error, path, mode, limit=1, **kwargs))
        return files[-1]

    monkeypatch.setattr(io_formats, "open", failing_open, raising=False)
    with pytest.raises(OSError) as info:
        writer(out, s)
    assert info.value is error
    assert [f.writes for f in files] == [2]
    assert list(tmp_path.iterdir()) == []


def _output_commands(d, sig):
    """Each command that writes files, with the files it writes under d."""
    outs = {"af": [d / "s.sur", d / "s.csv", d / "s.ppm"], "gen": [d / "g.sig"],
            "gen-binary": [d / "g.sigb"], "report": [d / "r.txt"]}
    argv = {
        "af": ["af", "--u", str(sig), "--n-doppler", "256", "-o", str(outs["af"][0]),
               "--csv", str(outs["af"][1]), "--ppm", str(outs["af"][2])],
        "gen": ["gen", "--family", "lfm", "-o", str(outs["gen"][0])],
        "gen-binary": ["gen", "--family", "lfm", "--binary", "-o", str(outs["gen-binary"][0])],
        "report": ["verify", "--suite", "norm", "--report", str(outs["report"][0])],
    }
    return {name: (argv[name], outs[name]) for name in argv}


@pytest.mark.parametrize("command, finish", [
    ("gen", False), ("gen-binary", False), ("report", False),
    ("gen", True), ("gen-binary", True), ("report", True),
], ids=["gen", "gen-binary", "report", "gen-finish", "gen-binary-finish", "report-finish"])
def test_failed_signal_or_report_write_leaves_no_file(command, finish, tmp_path, monkeypatch,
                                                      capsys):
    # the first write fails, or every write goes through and the cut to
    # length fails: a SIG1, SIGB or report output is deleted, not left as
    # the older file or a part of the new one
    sig = tmp_path / "r.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    argv, (out,) = _output_commands(tmp_path, sig)[command]
    out.write_bytes(b"an older output")
    files = []

    def failing_open(path, mode, **kwargs):
        error = OSError(errno.ENOSPC, "No space left on device")
        files.append(_FailingFinish(error, path, mode, **kwargs) if finish
                     else _FailingFile(error, path, mode, limit=0, **kwargs))
        return files[-1]

    monkeypatch.setattr(io_formats, "open", failing_open, raising=False)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert [f.writes for f in files] == [2 if command == "gen-binary" and finish else 1]
    assert sorted(tmp_path.iterdir()) == [sig]


@pytest.mark.parametrize("older", ["longer", "shorter"])
@pytest.mark.parametrize("command", ["af", "gen", "gen-binary", "report"])
def test_rewrite_equals_fresh_write(command, older, tmp_path, capsys):
    # an output is written over the older file's bytes and cut to length:
    # the result is the fresh file, byte for byte, and a new file gets the
    # mode bits open(path, "wb") gives
    sig = tmp_path / "r.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    (tmp_path / "fresh").mkdir()
    (tmp_path / "re").mkdir()
    umask = os.umask(0o027)
    try:
        argv, fresh = _output_commands(tmp_path / "fresh", sig)[command]
        assert cli.main(argv) == 0
        with open(tmp_path / "mode.ref", "wb"):
            pass
    finally:
        os.umask(umask)
    mode = (tmp_path / "mode.ref").stat().st_mode
    argv, outs = _output_commands(tmp_path / "re", sig)[command]
    for f, out in zip(fresh, outs):
        assert f.stat().st_mode == mode
        blob = f.read_bytes()[::-1]
        out.write_bytes(blob + blob if older == "longer" else blob[: len(blob) // 2])
    assert cli.main(argv) == 0
    for f, out in zip(fresh, outs):
        assert out.read_bytes() == f.read_bytes()


class _TornFile(_FailingFile):
    """A _FailingFile whose failing write puts the first half of its data in
    before it raises, as a process killed inside that write would."""

    def write(self, data):
        if self.writes == self.limit:
            self.fh.write(data[: len(data) // 2])
        return super().write(data)


@pytest.mark.parametrize("command, index, limit, reader", [
    ("af", 0, 1, read_surface),
    ("af", 1, 1, read_surface_csv),
    ("gen", 0, 0, read_signal),
    ("gen-binary", 0, 0, read_signal),
], ids=["sur1", "csv", "sig1", "sigb"])
def test_interrupted_rewrite_is_refused(command, index, limit, reader, tmp_path, monkeypatch,
                                        capsys):
    # a run killed part way through rewriting a same-size older output (here:
    # a write torn in half, and no cleanup) leaves a file whose marker is
    # still the placeholder, so the reader refuses it
    sig = tmp_path / "r.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    argv, outs = _output_commands(tmp_path, sig)[command]
    assert cli.main(argv) == 0
    out = outs[index]
    size = out.stat().st_size

    def torn_open(path, mode, **kwargs):
        error = OSError(errno.EIO, "Killed")
        return _TornFile(error, path, mode, limit if Path(path) == out else math.inf, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ambiguity, "_BLOCK_BYTES", 7 * 16 * 256)
        m.setattr(Path, "unlink", lambda self, missing_ok=False: None)
        m.setattr(io_formats, "open", torn_open, raising=False)
        assert cli.main(argv) == 2
    assert out.stat().st_size == size
    with pytest.raises(FileFormatError):
        reader(out)


def test_device_output_is_neither_cut_nor_marked(tmp_path, monkeypatch, capsys):
    # /dev/null cannot be truncated, and its header carries the marker itself
    sig = tmp_path / "r.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    pwrites = []
    monkeypatch.setattr(os, "pwrite", lambda *a: pwrites.append(a))
    assert cli.main(["af", "--u", str(sig), "-o", "/dev/null"]) == 0
    assert capsys.readouterr().out.startswith("af n_lag=511 n_doppler=1024 ")
    assert pwrites == []


def test_pipe_output_matches_file_output(tmp_path, capsys):
    # through a pipe the marker goes out with the header, so the bytes read
    # are those of the regular file
    sig = tmp_path / "r.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    assert cli.main(["af", "--u", str(sig), "-o", str(tmp_path / "a.sur")]) == 0
    fifo = tmp_path / "a.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    try:
        assert cli.main(["af", "--u", str(sig), "-o", str(fifo)]) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [(tmp_path / "a.sur").read_bytes()]
    assert fifo.exists()


@pytest.mark.parametrize("write, error", [
    (lambda p: write_ppm(p, np.zeros((0, 3))), FileFormatError),
    (lambda p: write_ppm(p, np.zeros((3, 0))), FileFormatError),
    (lambda p: write_ppm(p, np.zeros(5)), InvalidParameterError),
    (lambda p: write_ppm(p, np.zeros((2, 2, 2))), InvalidParameterError),
    (lambda p: write_surface_blocks([], np.zeros(0), np.zeros(3), ppm=p), FileFormatError),
    (lambda p: write_surface_blocks([], np.zeros(3), np.zeros(0), ppm=p), FileFormatError),
], ids=["no-rows", "no-columns", "1-d", "3-d", "no-lags", "no-dopplers"])
def test_shapeless_surface_is_refused_before_the_file(write, error, tmp_path):
    # a values array that is not 2-D, or an axis with no points, is refused
    # with the package's own error before any file opens
    with pytest.raises(error):
        write(tmp_path / "s.ppm")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows", [[0, 3], [0, 1], [0, 2, 4]], ids=["gap", "overlap", "short"])
def test_blocks_off_the_lag_rows_leave_no_file(rows, tmp_path):
    # blocks must tile the lag axis in order: a gap, an overlap or a missing
    # last row is refused and every output deleted
    s = cross_ambiguity(gen_rect(1.0, 1 / 4), n_doppler=8)
    blocks = [(r, s.values[r:r + 2]) for r in rows]
    outs = {"sur1": tmp_path / "s.sur", "csv": tmp_path / "s.csv", "ppm": tmp_path / "s.ppm"}
    with pytest.raises(FileFormatError):
        io_formats.write_surface_blocks(blocks, s.tau_axis, s.nu_axis, **outs)
    assert list(tmp_path.iterdir()) == []


def test_streamed_af_peak_memory(tmp_path, capsys):
    # af -o alone holds one block of rows, not the 128 MiB surface
    n, n_doppler = 1024, 4096
    sig, out = tmp_path / "u.sig", tmp_path / "u.sur"
    write_signal(sig, _random_signal(n, 3), binary=True)
    rc, peak = traced_peak(
        cli.main, ["af", "--u", str(sig), "--n-doppler", str(n_doppler), "-o", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith(f"af n_lag={2 * n - 1} n_doppler={n_doppler} ")
    assert out.stat().st_size == 44 + (2 * n - 1) * n_doppler * 16
    out.unlink()
    assert peak <= 16 * 2**20


def test_streamed_af_wigner_peak_memory(tmp_path, capsys):
    # af --wigner -o alone holds one block of rows and one of lag products,
    # not the 32 MiB distribution
    n, n_freq = 1024, 2048
    sig, out = tmp_path / "u.sig", tmp_path / "w.sur"
    write_signal(sig, _random_signal(n, 3), binary=True)
    rc, peak = traced_peak(
        cli.main, ["af", "--u", str(sig), "--wigner", "--n-freq", str(n_freq), "-o", str(out)]
    )
    assert rc == 0
    assert capsys.readouterr().out == f"wigner n_time={n} n_freq={n_freq}\n"
    assert out.stat().st_size == 44 + n * n_freq * 16
    out.unlink()
    assert peak <= 2 * ambiguity._BLOCK_BYTES + 2 * 2**20


def _af_peak(tmp_path, *extra):
    """tracemalloc peak of af on a 1024-sample signal at 1024 Doppler bins,
    a 2047x1024 surface of 32 MiB."""
    sig = tmp_path / "u.sig"
    write_signal(sig, _random_signal(1024, 3), binary=True)
    rc, peak = traced_peak(cli.main, ["af", "--u", str(sig), "--n-doppler", "1024", *extra])
    assert rc == 0
    return peak


def test_af_without_output_peak_memory(tmp_path, capsys):
    # af alone holds one block of the surface and one of lag products
    peak = _af_peak(tmp_path)
    assert capsys.readouterr().out.startswith("af n_lag=2047 n_doppler=1024 ")
    assert peak <= 2 * ambiguity._BLOCK_BYTES + 2 * 2**20


def test_af_ppm_peak_memory(tmp_path, capsys):
    # af --ppm holds the float64 |values| image (16 MiB), its 8-bit copy
    # (2 MiB) and one block each of the surface and its lag products
    out = tmp_path / "u.ppm"
    peak = _af_peak(tmp_path, "--ppm", str(out))
    assert out.stat().st_size == len(b"P5\n1024 2047\n255\n") + 2047 * 1024
    image = 2047 * 1024 * 8
    assert peak <= image + image // 8 + 2 * ambiguity._BLOCK_BYTES + 2 * 2**20


def test_af_csv_peak_memory(tmp_path, monkeypatch, capsys):
    # af --csv holds one small block and one lag row of text, not the 2 MiB
    # surface (a full-size CSV takes tens of seconds, so the blocks shrink)
    monkeypatch.setattr(ambiguity, "_BLOCK_BYTES", 8 * 16 * 512)
    sig, out = tmp_path / "u.sig", tmp_path / "u.csv"
    write_signal(sig, _random_signal(256, 4), binary=True)
    rc, peak = traced_peak(cli.main, ["af", "--u", str(sig), "--n-doppler", "512",
                                      "--csv", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("af n_lag=511 n_doppler=512 ")
    assert peak <= 2**20


def test_streamed_mimo_trace_ppm_peak_memory(tmp_path, capsys):
    # the M=4 trace holds its float64 |values| image (8 MiB), its 8-bit copy
    # and one block of the surface and two of lag products
    paths = _subcarrier_files(tmp_path, 4, 2.0)
    out = tmp_path / "tr.ppm"
    rc, peak = traced_peak(cli.main, [
        "mimo", "--inputs", *map(str, paths), "--spatial-integral",
        "--n-doppler", "1024", "--ppm", str(out),
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith("spatial-integral n_lag=1023 n_doppler=1024 ")
    image = 1023 * 1024 * 8
    assert peak <= image + image // 8 + 3 * ambiguity._BLOCK_BYTES + 2**20


# --------------------------------------------------------------- cli: mimo

@pytest.fixture()
def subcarrier_files(tmp_path):
    out = tmp_path / "s.sig"
    run_cli("gen", "--family", "subcarriers", "--M", "2", "-o", out)
    return [tmp_path / "s0.sig", tmp_path / "s1.sig"]


def test_mimo_slice_origin(subcarrier_files, tmp_path):
    res = run_cli("mimo", "--inputs", *subcarrier_files, "--n-doppler", "512")
    assert res.returncode == 0
    token = [t for t in res.stdout.split() if t.startswith("origin=")][0]
    origin = complex(token.removeprefix("origin="))
    assert abs(origin - 2.0) <= 1e-9


def test_mimo_spatial_integral_is_trace(subcarrier_files, tmp_path):
    sur = tmp_path / "tr.sur"
    res = run_cli(
        "mimo", "--inputs", *subcarrier_files, "--spatial-integral",
        "--n-doppler", "512", "-o", sur,
    )
    assert res.returncode == 0
    waves = [read_signal(p) for p in subcarrier_files]
    expect = sum(cross_ambiguity(w, n_doppler=512).values for w in waves)
    assert np.max(np.abs(read_surface(sur).values - expect)) <= 1e-9


def test_mimo_slice_spatial_grid(subcarrier_files, tmp_path):
    sur = tmp_path / "grid.sur"
    res = run_cli(
        "mimo", "--inputs", *subcarrier_files, "--slice-spatial",
        "--K", "16", "--n-doppler", "512", "-o", sur,
    )
    assert res.returncode == 0
    grid = read_surface(sur).values
    assert grid.shape == (16, 16)
    assert np.max(np.abs(np.diag(grid) - 2.0)) <= 1e-9


def test_mimo_K_is_read_by_the_grid_alone(subcarrier_files, tmp_path, capsys):
    # the trace and the beam slice take --K and ignore it, as the beam
    # slice ignores --tau; the K x K grid still refuses K = 1
    base = ["mimo", "--inputs", *subcarrier_files, "--n-doppler", "512"]
    for mode in (["--spatial-integral"], []):
        plain, with_k = tmp_path / "plain.sur", tmp_path / "k.sur"
        assert _exit_code([*base, *mode, "-o", plain]) == 0
        assert _exit_code([*base, *mode, "--K", "1", "-o", with_k]) == 0
        assert with_k.read_bytes() == plain.read_bytes()
    capsys.readouterr()
    assert _exit_code([*base, "--slice-spatial", "--K", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: n_spatial must be an integer")


def test_mimo_single_element_overflowing_steering_exits_2(tmp_path, capsys):
    # 2 pi gamma overflows, so the steering phases would be nan (a numpy
    # RuntimeWarning, an error here): the array is refused before any phase
    one = tmp_path / "s.sig"
    write_signal(one, gen_rect(1.0, 1 / 128))
    argv = ["mimo", "--inputs", one, "--gamma", "1e308", "--fs", "0.3"]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_mimo_grid_mismatch_exits_2(tmp_path):
    a, b = tmp_path / "a.sig", tmp_path / "b.sig"
    run_cli("gen", "--family", "rect", "-o", a)
    run_cli("gen", "--family", "rect", "--dt", "0.015625", "-o", b)
    res = run_cli("mimo", "--inputs", a, b)
    assert res.returncode == 2
    assert res.stderr != ""


def test_mimo_fs_out_of_range_exits_2(subcarrier_files):
    res = run_cli("mimo", "--inputs", *subcarrier_files, "--fs", "1.5")
    assert res.returncode == 2


@pytest.mark.parametrize("extra", [
    ["--tau", "0.01"],        # half a lag step off the axis
    ["--nu", "0.0625"],       # half a Doppler bin off the axis at 1024 bins
    ["--tau", "nan"],
    ["--nu", "inf"],
    ["--tau", "1e308"],       # overflows on the way to a lag index
    ["--n-doppler", "3"],
    None,  # second input on a coarser grid
])
def test_mimo_slice_spatial_bad_point_exits_2(extra, subcarrier_files, tmp_path, capsys):
    inputs = list(subcarrier_files)
    if extra is None:
        inputs[1] = tmp_path / "coarse.sig"
        write_signal(inputs[1], gen_rect(1.0, 1 / 64))
        extra = []
    argv = ["mimo", "--inputs", *inputs, "--slice-spatial", *extra]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_mimo_modes_are_exclusive(subcarrier_files):
    argv = ["mimo", "--inputs", *subcarrier_files, "--slice-spatial", "--spatial-integral"]
    with pytest.raises(SystemExit) as exc:
        cli.main([str(a) for a in argv])
    assert exc.value.code == 2


def test_cached_parser_behaves_as_fresh_ones(capsys):
    # main builds its parser once per process; an argparse error (exit 2)
    # must leave it as a freshly built one would be, and --help reads the same
    def outcome(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    calls = [["verify", "--suite", "nope"], ["verify", "--suite", "norm"], ["verify", "--help"]]
    fresh = [outcome(argv, fresh=True) for argv in calls]
    cli._build_parser.cache_clear()
    cached = [outcome(argv, fresh=False) for argv in calls]
    assert cached == fresh
    assert [c for c, _, _ in cached] == [2, 0, 0]
    assert "invalid choice: 'nope'" in cached[0][2]
    assert "--suite" in cached[2][1]
    assert cli._build_parser() is cli._build_parser()


def test_verify_sym_mimo_rejects_bad_steering(capsys):
    # the suites steer through mimo_beams, like `mimo`
    for extra in (["--fs", "1.5"], ["--fsp", "nan"]):
        assert cli.main(["verify", "--suite", "sym-mimo", *extra]) == 2, extra
        assert capsys.readouterr().err.startswith("error:"), extra


# ------------------------------------------------------------- cli: verify

def test_verify_takes_no_K(tmp_path, capsys):
    # no verify suite samples the spatial grid, so K is not a verify flag,
    # on the command line or in a config file
    cfg = tmp_path / "v.cfg"
    cfg.write_text("K=64\n")
    for argv in (["verify", "--suite", "norm", "--K", "64"],
                 ["verify", "--suite", "norm", "--config", cfg]):
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "--K" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "suite", ["mimo-energy", "mimo-moyal", "trace-psd", "trace-reduction", "sym-mimo"]
)
def test_verify_mimo_suites_take_a_wide_array(suite, capsys):
    # gamma (M-1) is 140 here and 70 for sym-mimo's two elements, past the
    # default --K of 64: no verify suite samples the K x K grid
    assert cli.main(["verify", "--suite", suite, "--M", "3", "--gamma", "70"]) == 0
    assert all(" pass " in ln for ln in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("suite", ["norm", "uniqueness", "collinearity", "sym-mirror", "sym-lfm"])
def test_verify_single_waveform_suites_ignore_M(suite, capsys):
    # these suites run subcarrier 0, the rect pulse, so --M sizes nothing
    # of theirs, and 100 subcarriers, past Nyquist, are never built
    argv = ["verify", "--suite", suite, "--family", "subcarriers"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    assert cli.main(argv + ["--M", "100"]) == 0
    assert capsys.readouterr().out == want


def test_verify_norm_passes(tmp_path):
    res = run_cli("verify", "--suite", "norm")
    assert res.returncode == 0
    lines = [ln for ln in res.stdout.splitlines() if ln]
    assert lines
    assert all(" pass " in ln for ln in lines)


def test_verify_strict_tolerance_fails(tmp_path):
    res = run_cli("verify", "--suite", "norm", "--tol", "1e-20")
    assert res.returncode == 1
    assert any(" fail " in ln for ln in res.stdout.splitlines())


def test_verify_tol_reaches_every_check(capsys):
    assert cli.main(["verify", "--suite", "all", "--tol", "0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= len(cli.SUITES) - 1
    assert [ln.split()[-1] for ln in lines] == ["0.25"] * len(lines)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_bad_tolerance_exits_2(tol, capsys):
    # exit 1 would read as "an identity failed", and an infinite tolerance
    # would pass every check whatever its error
    assert cli.main(["verify", "--suite", "norm", "--tol", tol]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")


@pytest.mark.parametrize("suite,flag,value", [
    ("moyal", "--seed", "-1"),
    ("uniqueness", "--seed", "-1"),
    ("psd", "--seed", "-1"),
    ("trace-psd", "--seed", "-1"),
    ("psd", "--probes", "-1"),
    ("trace-psd", "--probes", "-1"),
    ("psd", "--n-doppler", "0"),
    ("trace-psd", "--n-doppler", "0"),
], ids=lambda x: x.lstrip("-"))
def test_verify_bad_input_exits_2(suite, flag, value, capsys):
    assert cli.main(["verify", "--suite", suite, flag, value]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")


def test_one_sample_signal_exits_2(tmp_path, capsys):
    one = tmp_path / "one.sig"
    write_signal(one, SampledSignal(np.array([1.0 + 0j]), 0.5, 0.0))
    for argv in (["af", "--u", one], ["af", "--u", one, "--wigner"],
                 ["mimo", "--inputs", one, one]):
        assert cli.main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error:")


_BAD_NUMBERS = ["nan", "inf", "-1", "0"]
_GEN_PARAMS = [
    (family, flag) for family in ("rect", "lfm", "subcarriers") for flag in ("--dt", "--T", "--pad")
] + [("gaussian", flag) for flag in ("--dt", "--sigma", "--half-width")]


@pytest.mark.parametrize("family,flag", _GEN_PARAMS)
@pytest.mark.parametrize("value", _BAD_NUMBERS)
def test_gen_bad_parameter_exits_2(family, flag, value, tmp_path, capsys):
    out = tmp_path / "x.sig"
    assert cli.main(["gen", "--family", family, flag, value, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "gaussian", "--dt", "1e-300"],
    ["gen", "--family", "rect", "--T", "1e300"],
    ["gen", "--family", "rect", "--pad", "1e300"],
    ["gen", "--family", "subcarriers", "--T", "1e300"],
    ["gen", "--family", "gaussian", "--sigma", "1e-200"],
    ["gen", "--family", "subcarriers", "--M", str(10**400)],
    ["verify", "--suite", "mimo-energy", "--M", str(10**400)],
], ids=["gaussian-dt", "rect-T", "rect-pad", "subcarriers-T", "gaussian-sigma", "gen-M",
        "verify-M"])
def test_unrepresentable_size_exits_2(argv, tmp_path, capsys):
    # sample counts past the u32 header fields, an underflowing sigma^2 and
    # an int no float holds are bad inputs, not failed identity checks
    out = tmp_path / "x.sig"
    if argv[0] == "gen":
        argv = argv + ["-o", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


_PAST_U32 = str(10**20)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "psd", "--probes", str(10**19)],
    ["verify", "--suite", "psd", "--probes", str(10**400)],
    ["verify", "--suite", "psd", "--n-doppler", _PAST_U32],
    ["verify", "--suite", "norm", "--n-doppler", _PAST_U32],
    ["af", "--u", "{s0}", "--n-doppler", _PAST_U32],
    ["af", "--u", "{s0}", "--wigner", "--n-freq", _PAST_U32],
    ["mimo", "--inputs", "{s0}", "{s1}", "--n-doppler", _PAST_U32],
    ["mimo", "--inputs", "{s0}", "{s1}", "--slice-spatial", "--K", _PAST_U32],
], ids=["psd-probes", "psd-probes-401-digits", "psd-n-doppler", "norm-n-doppler",
        "af-n-doppler", "wigner-n-freq", "mimo-n-doppler", "mimo-K"])
def test_count_past_u32_exits_2(argv, tmp_path, capsys):
    # counts become u32 SUR1 dimensions; argparse takes ints of any size
    inputs = [tmp_path / "s0.sig", tmp_path / "s1.sig"]
    for path, w in zip(inputs, gen_subcarrier_set(2, 1.0, 1 / 128)):
        write_signal(path, w)
    argv = [a.format(s0=inputs[0], s1=inputs[1]) for a in argv]
    assert cli.main(argv + ["-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_lfm_bad_rate_exits_2(value, tmp_path, capsys):
    assert cli.main(["gen", "--family", "lfm", "--rate", value,
                     "-o", str(tmp_path / "x.sig")]) == 2
    assert capsys.readouterr().err.startswith("error:")


# Each size but the Wigner one is past any address space (>= 2**48 bytes),
# so the allocation fails at once and nothing large is ever touched.  The
# Wigner case's first allocation is the axis of its 2**32 - 2 frequencies
# (fftfreq, 32 GiB), so it reaches MemoryError only on a host that cannot
# allocate that much: whether it is refused depends on host memory.
_HUGE_DOPPLER = str(2 ** 50)


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "rect", "--dt", "1e-16"],
    ["af", "--u", "{sig}", "--n-doppler", _HUGE_DOPPLER],
    ["verify", "--suite", "norm", "--n-doppler", _HUGE_DOPPLER],
    # a count inside the u32 bound: the 4096 x (2**32 - 2) lag grid is 256 TiB
    ["af", "--u", "{sig4096}", "--wigner", "--n-freq", str(2**32 - 2)],
], ids=["gen-dt", "af-n-doppler", "verify-n-doppler", "wigner-n-freq"])
def test_out_of_memory_exits_2(argv, tmp_path, capsys):
    sig, sig4096 = tmp_path / "s.sig", tmp_path / "s4096.sig"
    write_signal(sig, gen_rect(1.0, 1 / 128))
    write_signal(sig4096, gen_rect(1.0, 1 / 2048))
    out = tmp_path / "out"
    argv = [a.replace("{sig}", str(sig)).replace("{sig4096}", str(sig4096)) for a in argv]
    argv += ["-o", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_verify_unknown_suite_exits_2():
    res = run_cli("verify", "--suite", "nonsense")
    assert res.returncode == 2


def test_verify_report_determinism(tmp_path):
    blobs = []
    for tag in ("1", "2"):
        rep = tmp_path / f"rep{tag}.txt"
        res = run_cli(
            "verify", "--suite", "psd", "--seed", "7", "--report", rep
        )
        assert res.returncode == 0
        blobs.append(rep.read_bytes())
    assert blobs[0] == blobs[1]
    assert b" pass " in blobs[0]


def test_verify_unwritable_report_exits_2_before_any_line(tmp_path, surface_builds, capsys):
    # the report opens before the first suite runs: a path under a regular
    # file exits 2 with one error line, and no suite runs or prints
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    argv = ["verify", "--suite", "norm", "--report", str(blocker / "x.txt")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert surface_builds == []


def test_verify_several_suites_join_their_lines(tmp_path, capsys):
    # stdout and the report hold each suite's lines, in the order given, as
    # the single-suite runs print them; a name given twice runs once
    want = ""
    for suite in ("norm", "psd"):
        assert cli.main(["verify", "--suite", suite]) == 0
        want += capsys.readouterr().out
    report = tmp_path / "r.txt"
    argv = ["verify", "--suite", "norm", "psd", "norm", "--report", str(report)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want
    assert report.read_text() == want


def test_verify_refusal_outranks_failure(tmp_path, capsys):
    # psd refuses zero probes: norm's lines, one of them failing, stay on
    # stdout, one error line names psd, the run exits 2 and the report is
    # deleted
    assert cli.main(["verify", "--suite", "norm", "--tol", "1e-20"]) == 1
    norm_lines = capsys.readouterr().out
    assert " fail " in norm_lines
    report = tmp_path / "r.txt"
    argv = ["verify", "--suite", "norm", "psd", "--tol", "1e-20", "--report", str(report)]
    assert cli.main(argv + ["--probes", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == norm_lines
    assert err.startswith("error: psd: ") and err.count("\n") == 1
    assert not report.exists()
    assert cli.main(argv) == 1
    assert report.exists()


def test_verify_explicit_suites_replace_the_config_suite(tmp_path, capsys):
    # --suite is one flag that takes several names: an explicit one
    # replaces a config file's, as every other flag does, and adds nothing
    cfg = tmp_path / "v.cfg"
    cfg.write_text("suite=psd\n")
    want = ""
    for suite in ("norm", "sym-mirror"):
        assert cli.main(["verify", "--suite", suite]) == 0
        want += capsys.readouterr().out
    assert cli.main(["verify", "--config", str(cfg), "--suite", "norm", "sym-mirror"]) == 0
    assert capsys.readouterr().out == want


def test_verify_all_at_half_wavelength_keeps_the_accepting_suites(capsys):
    # three suites need an integer spacing and refuse gamma = 0.5; the other
    # eleven still run, in suite order, and one error line names all three
    refused = ["mimo-energy", "trace-psd", "trace-reduction"]
    assert cli.main(["verify", "--suite", "all", "--gamma", "0.5"]) == 2
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 23 and all(ln.split()[1] == "pass" for ln in lines)
    ran = list(dict.fromkeys(ln.split()[0] for ln in lines))
    assert ran == [s for s in cli.SUITES if s not in [*refused, "all"]]
    assert err.count("\n") == 1
    assert err.startswith("error: ") and all(f"{s}: " in err for s in refused)


# sha256 of `verify --suite all --family F` stdout at seed 0, last re-taken
# when sym-J and sym-mirror began to compare every cell, their Doppler
# bin 0 read one period on: those two lines and the first two sym-mimo
# lines moved in their last digits, and every line still passes (the diff
# is in CHANGES.md).  Before that, when the symmetry checks began to take
# their norms as row sums of squares totalled by math.fsum, so that they
# could stream their routes block by block: sym-J, sym-mirror, sym-dilate
# and the sym-mimo lines moved, and sym-lfm in all families but lfm, only
# in the last one or two of their 17 digits, and every line still passed;
# the psd and trace-psd lines, which now stream only their probes'
# lag rows, kept their bytes.  Before that, when the scalar checks began to
# stream their surfaces block by block and to total each sum from its row
# sums with math.fsum, the moyal and mimo-moyal lines and lfm's first norm
# line moved (22 lines in all), only in their numbers, lhs by at most
# 8.9e-16, and every line still passed.  Before that, the block loop took the window
# phase of a whole t0/dt as a circular shift of the Doppler FFT's input and
# dropped its scale-and-phase pass (15 to 18 lines per family moved, by at
# most 9.0e-15); the psd and trace-psd Grams' move to index arithmetic
# moved the rel_err field of those lines at rounding level, and the
# symmetry checks' move to the same table, sym-J's index relabel and einsum
# norms moved the sym-* lines the same way.  The lines are the same at 1
# and 2 BLAS threads (test_verify_all_thread_count_independent).  Each line
# prints 17 digits of its errors, so the pins also hold the FFT's and BLAS's
# rounding of the surfaces and sums behind them: a numpy or BLAS build that
# rounds those differently changes the pins without a fault in the checks.
VERIFY_ALL_PINNED = {
    "gaussian": "9c0be3909b45c64d52da010556e1d5ae8925cf44a287aef1d010bf30a4361051",
    "lfm": "bb8e1ed71d55940d35287e05fc5d796d4a2087f7e5c4f4b0ea1bba1a2a2012e5",
    "rect": "e6fa6947f0a70a2b82b4bbd7bd7a06a0826a00273b764273dc027475066ac827",
    "subcarriers": "edb165e3aa895dcd085e99ee37ca772ca268caba784829b10c90b3a94648ff9d",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_suites(tmp_path):
    rep = tmp_path / "all.txt"
    res = run_cli("verify", "--suite", "all", "--report", rep)
    assert res.returncode == 0
    lines = rep.read_text().splitlines()
    assert len(lines) >= 14  # every suite contributes at least one check
    assert all(" pass " in ln for ln in lines)
    assert _sha256(res.stdout) == VERIFY_ALL_PINNED["gaussian"]  # the default family


@pytest.mark.parametrize("family", ["rect", "lfm", "subcarriers"])
def test_verify_all_report_lines_pinned(family, capsys):
    # gaussian, the default family, is pinned on test_verify_all_suites's run
    assert cli.main(["verify", "--suite", "all", "--family", family]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_ALL_PINNED[family]


def test_verify_all_thread_count_independent():
    # the report of every family has the same bytes at one and two BLAS
    # threads; the thread count is read when numpy loads, so each count
    # runs in its own process
    script = (
        "import sys\nfrom mimoaf import cli\n"
        "for f in sys.argv[1:]:\n"
        "    print(f, cli.main(['verify', '--suite', 'all', '--family', f]))\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", script, *VERIFY_ALL_PINNED],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(" pass ") >= 4 * 14 and " fail " not in outs[0]


def test_live_hull_moves_no_report_byte(monkeypatch, capsys):
    # a +0 row adds exactly 0 to every reducer the checks use, so checks
    # that run only their loops' live hull print the bytes of checks that
    # run every row, on every family, seed and array size
    def report(args):
        assert cli.main(["verify", "--suite", "all", *args]) == 0
        return capsys.readouterr().out

    runs = [["--family", f, "--seed", seed, "--M", M]
            for f in VERIFY_ALL_PINNED for seed in ("0", "3") for M in ("2", "3")]
    hull = [report(args) for args in runs]
    monkeypatch.setattr(ambiguity, "_live_hull", lambda loops: (0, loops[0].tau_axis.size))
    assert [report(args) for args in runs] == hull


# Surfaces each suite builds on one family.  A check builds only what its
# routes read: trace-reduction decides its hypothesis on the waveforms (the
# trace and chi(u0, u0) of the collinear set, none for the refused set), and
# a pair given twice to one side of an identity is built once (moyal's
# (u, u, u, u), collinearity's (u, u), mimo-moyal's (ortho, ortho)).  The
# symmetry suites build both routes even where they coincide.
SUITE_BUILDS = {
    "norm": 2, "mimo-energy": 4, "moyal": 7, "mimo-moyal": 3, "psd": 1, "trace-psd": 1,
    "uniqueness": 8, "collinearity": 5, "trace-reduction": 2, "sym-J": 2, "sym-mirror": 2,
    "sym-lfm": 2, "sym-dilate": 2, "sym-mimo": 8,
}


def test_suite_builds_cover_every_suite():
    assert sorted(SUITE_BUILDS) == sorted(s for s in cli.SUITES if s != "all")
    assert sum(SUITE_BUILDS.values()) == 49


@pytest.mark.parametrize("suite", SUITE_BUILDS)
def test_verify_suite_surface_builds(suite, surface_builds, capsys):
    assert cli.main(["verify", "--suite", suite, "--family", "gaussian"]) == 0
    assert len(surface_builds) == SUITE_BUILDS[suite]


@pytest.mark.parametrize("suite", [*(s for s in cli.SUITES if s != "all"), "reciprocal-dilation"])
def test_verify_suite_surface_budget(suite, capsys):
    # Every check streams its surfaces through the block loop and holds a
    # few blocks, never a surface of this grid (sym-J holds one of its own
    # 1 MiB cyclic surfaces), so every suite on the default grid (256
    # samples, 1024 Doppler bins, 8 MiB a surface) peaks within 4 MiB of
    # arrays.  b = 0.5 takes the dilation check through the dilated pair's
    # parent.
    if suite == "reciprocal-dilation":
        u = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0)
        rep, peak = traced_peak(verify_dilation, u, b=0.5, n_doppler=1024)
        assert rep.info["route"] == "reciprocal-parent"
    else:
        rc, peak = traced_peak(cli.main, ["verify", "--suite", suite])
        assert rc == 0
    assert peak <= 4 * 2**20


def test_verify_sym_J_surface_budget(capsys):
    # sym-J's own cyclic grid is 256 x 256, 1 MiB a surface: the rotation
    # check holds one of them, chi(u, v), and streams the Fourier pair's
    # against it, within three of them plus 1 MiB, the same rule as the
    # other checks at the default grid
    surface_bytes = 256 * 256 * 16
    rc, peak = traced_peak(cli.main, ["verify", "--suite", "sym-J"])
    assert rc == 0
    assert peak <= 3 * surface_bytes + 2**20


# ------------------------------------------------------------- cli: config

def test_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "gen.cfg"
    # a "#" after whitespace starts a comment, as one at a line's start does
    cfg.write_text("family=lfm\nT=0.5  # seconds\nrate=6\t# Hz/s\n# comment line\n")
    out = tmp_path / "c.sig"
    res = run_cli("gen", "--config", cfg, "-o", out)
    assert res.returncode == 0
    u = read_signal(out)
    assert abs(u.energy() - 1.0) <= 1e-9
    assert u.n == 128  # T=0.5, pad 2, dt 1/128


def test_config_explicit_flag_wins(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("family=lfm\nT=0.5\n")
    out = tmp_path / "c.sig"
    res = run_cli("gen", "--config", cfg, "--T", "1.0", "-o", out)
    assert res.returncode == 0
    assert read_signal(out).n == 256


def test_config_files_are_all_read_in_order(tmp_path):
    # each file is read, a later one overrides an earlier one, and an
    # explicit flag overrides both
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("family=lfm\nT=0.5\n")
    b.write_text("rate=6\n")
    c = tmp_path / "c.cfg"
    c.write_text("T=0.25\n")
    out = tmp_path / "d.sig"
    cases = [([a, b], [], 128), ([a, c], [], 64), ([c, a], [], 128), ([a, c], ["--T", "1"], 256)]
    for files, flags, n in cases:
        argv = ["gen", *(t for f in files for t in ("--config", f)), *flags, "-o", out]
        assert _exit_code(argv) == 0, (files, flags)
        assert read_signal(out).n == n, (files, flags)


def test_config_bare_flag(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("family=gaussian\nbinary=true\n")
    out = tmp_path / "g.sig"
    res = run_cli("gen", "--config", cfg, "-o", out)
    assert res.returncode == 0
    assert out.read_bytes().startswith(b"SIGB")


def test_config_later_false_switch_overrides_an_earlier_true(tmp_path):
    # the files' entries are merged in order before any flag is given, so a
    # later binary=false turns the switch off, and an explicit flag still wins
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("family=rect\nbinary=true\n")
    b.write_text("binary=false\n")
    out = tmp_path / "x.sig"
    cases = [([a, b], [], b"n="), ([b, a], [], b"SIGB"), ([a, b], ["--binary"], b"SIGB")]
    for files, flags, head in cases:
        argv = ["gen", *(t for f in files for t in ("--config", f)), *flags, "-o", out]
        assert _exit_code(argv) == 0, (files, flags)
        assert out.read_bytes().startswith(head), (files, flags)


def test_config_that_is_not_utf8_exits_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe\x00bad\n")
    res = run_cli("verify", "--suite", "norm", "--config", bad)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert str(bad) in res.stderr


@pytest.mark.parametrize("case", ["suite", "inputs", "u"])
def test_config_value_gives_its_flag_one_token_or_several(case, tmp_path, capsys):
    # a flag that takes several values reads a config value's words, any
    # other flag the whole value, spaces included: each run prints what its
    # spelled-out command line prints
    a, b = tmp_path / "a sig.sig", tmp_path / "b.sig"
    write_signal(a, gen_rect(1.0, 1 / 32))
    write_signal(b, gen_rect(1.0, 1 / 32).replace_samples(1j * gen_rect(1.0, 1 / 32).samples))
    # (command, config line, the flag it stands for, the rest of the line)
    command, line, flag, rest = {
        "suite": ("verify", "suite=norm psd", ["--suite", "norm", "psd"], []),
        "inputs": ("mimo", f"inputs={b} {b}", ["--inputs", b, b], ["--n-doppler", "128"]),
        "u": ("af", f"u={a}", ["--u", a], ["--n-doppler", "128"]),
    }[case]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert _exit_code([command, *flag, *rest]) == 0
    want = capsys.readouterr().out
    assert _exit_code([command, "--config", cfg, *rest]) == 0
    got = capsys.readouterr().out
    assert got == want and got.count("\n") == (3 if case == "suite" else 1)


@pytest.mark.parametrize("line", ["=5", "fam ily=rect", "--family=rect", "-family=rect"])
def test_config_key_that_is_no_flag_name_exits_2_naming_the_file(line, tmp_path, capsys):
    # an empty key gave argparse its end-of-options token "--", a spaced
    # key was swallowed as a --suite value, and a dashed one became
    # "----family": each ended in an argparse error that named no file
    cfg = tmp_path / "k.cfg"
    cfg.write_text(f"# keys\nfamily=rect\n{line}\n")
    assert _exit_code(["verify", "--suite", "norm", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: --config {cfg}: line 3: ") and err.count("\n") == 1


def test_many_valued_config_flags_are_the_parsers(tmp_path):
    # a config value is split into words only for the flags the parser
    # declares with nargs="+", and is one token for every other flag that
    # takes a value; the config reader types each flag once for all
    # subcommands, so a flag they share must take values alike in each
    subs = next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    nargs: dict[str, set] = {}
    for sub in subs.choices.values():
        for a in sub._actions:
            for opt in a.option_strings:
                nargs.setdefault(opt, set()).add(a.nargs)
    assert all(len(kinds) == 1 for kinds in nargs.values()), nargs
    assert {opt for opt, kinds in nargs.items() if "+" in kinds} == {"--suite", "--inputs"}
    cfg = tmp_path / "c.cfg"
    for opt, (kind,) in nargs.items():
        if opt.startswith("--") and kind != 0:
            cfg.write_text(f"{opt[2:]}=a b\n")
            want = [opt, "a", "b"] if kind == "+" else [opt, "a b"]
            assert cli._config_tokens([str(cfg)]) == want, opt


@pytest.mark.parametrize("line", ["u={}", "u={}  # the pulse", "  # a note\nu={}"],
                         ids=["hash-in-value", "trailing-comment", "indented-comment"])
def test_config_hash_starts_a_comment_only_after_whitespace(line, tmp_path, capsys):
    # a "#" inside a value is part of it; one at the start of a line or
    # after whitespace starts a comment
    sig = tmp_path / "a#b.sig"
    write_signal(sig, gen_rect(1.0, 1 / 32))
    cfg = tmp_path / "h.cfg"
    cfg.write_text(line.format(sig) + "\n")
    assert _exit_code(["af", "--u", sig, "--n-doppler", "128"]) == 0
    want = capsys.readouterr().out
    assert _exit_code(["af", "--config", cfg, "--n-doppler", "128"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("value", ["true", "false", "TRUE"])
def test_config_value_of_a_flag_that_takes_one_is_verbatim(value, tmp_path, capsys,
                                                           monkeypatch):
    # only a switch reads true or false: u=true names a file called "true"
    monkeypatch.chdir(tmp_path)
    write_signal(value, gen_rect(1.0, 1 / 32))
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"u={value}\n")
    assert _exit_code(["af", "--u", value, "--n-doppler", "128"]) == 0
    want = capsys.readouterr().out
    assert _exit_code(["af", "--config", cfg, "--n-doppler", "128"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("line", ["binary=yes", "binary=1", "binary=", "binary=true false",
                                  "bin=true", "wavelength=3"])
def test_config_bad_switch_value_or_unknown_key_exits_2_naming_the_line(line, tmp_path, capsys):
    # a switch takes true or false, and a key must be a flag's full name;
    # argparse's own error named neither the file nor the line
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"family=rect\n{line}\n")
    out = tmp_path / "x.sig"
    assert _exit_code(["gen", "--config", cfg, "-o", out]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith(f"error: --config {cfg}: line 2: ") and err.count("\n") == 1


def test_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("family=rect\nwavelength=3\n")
    res = run_cli("gen", "--config", cfg, "-o", tmp_path / "x.sig")
    assert res.returncode == 2


def _exit_code(argv):
    """cli.main's exit code, whether it returns it or argparse raises it."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("where", ["before", "equals"])
def test_config_before_subcommand_or_with_equals(where, tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("family=lfm\nT=0.5\n")
    out = tmp_path / "c.sig"
    argv = {
        "before": ["--config", cfg, "gen", "-o", out],
        "equals": ["gen", "-o", out, f"--config={cfg}"],
    }[where]
    assert _exit_code(argv) == 0
    assert read_signal(out).n == 128  # T=0.5 at pad 2 and dt 1/128


@pytest.mark.parametrize("case", ["no-path", "missing", "directory", "no-equals"])
def test_config_refusals_exit_2(case, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("family=lfm\nT 0.5\n")
    tail = {
        "no-path": ["--config"],
        "missing": ["--config", tmp_path / "missing.cfg"],
        "directory": ["--config", tmp_path],
        "no-equals": ["--config", bad],
    }[case]
    assert _exit_code(["gen", "-o", tmp_path / "x.sig", *tail]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "x.sig").exists()


@pytest.mark.parametrize("case", ["abbreviated", "config-line"])
def test_config_reaching_the_subcommand_exits_2(case, tmp_path, capsys):
    # main reads only the spelled-out flag, so a --config the subcommand
    # parses instead would name a file nobody reads
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("family=lfm\nT=0.5\n")
    outer = tmp_path / "outer.cfg"
    outer.write_text(f"config={cfg}\n")
    out = tmp_path / "y.sig"
    tail = {
        "abbreviated": ["--conf", cfg],
        "config-line": ["--config", outer],
    }[case]
    assert _exit_code(["gen", "--family", "rect", "-o", out, *tail]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--config" in err
    assert not out.exists()


SUBCOMMAND_OPTIONS = {
    "gen": "-h --help --config --family --T --dt --pad --sigma --half-width --rate --M "
           "--binary -o --out",
    "af": "-h --help --config --u --v --wigner --n-doppler --n-freq -o --out --csv --ppm "
          "--db-floor --linear",
    "mimo": "-h --help --config --inputs --gamma --K --n-doppler --fs --fsp "
            "--spatial-integral --slice-spatial --tau --nu -o --out --csv --ppm "
            "--db-floor --linear",
    "verify": "-h --help --config --suite --family --M --gamma --n-doppler --probes "
              "--seed --fs --fsp --tol -o --report",
}


def test_subcommand_option_strings_pinned():
    # each subcommand accepts exactly these flags, however they are declared
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in p._actions for s in a.option_strings)
           for name, p in sub.choices.items()}
    assert got == {name: sorted(opts.split()) for name, opts in SUBCOMMAND_OPTIONS.items()}


# ------------------------------------------------------------------ scripts

def test_render_af_gallery_script(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "render_af_gallery.py"
    res = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    stems = [f"{f}_af" for f in ("rect", "gaussian", "lfm")]
    stems += ["mimo_fs0_fsp0", "mimo_fs0p25_fsp0p75"]
    for stem in stems:
        assert read_surface(tmp_path / f"{stem}.sur").values.size > 0, stem
        assert (tmp_path / f"{stem}.ppm").read_bytes().startswith(b"P5\n"), stem
    for f in ("rect", "gaussian", "lfm"):
        assert (tmp_path / f"{f}_wigner.ppm").read_bytes().startswith(b"P5\n"), f
    # co-steered slice of an orthonormal pair: M at the origin
    beam = read_surface(tmp_path / "mimo_fs0_fsp0.sur")
    assert abs(beam.value_at(0.0, 0.0) - 2.0) <= 1e-9


@pytest.mark.parametrize("args", [
    ["--db-floor", "nan"],
    ["--db-floor", "5"],
    # an output directory under a regular file cannot be made
    ["--out", "{blocker}/x"],
], ids=["nan", "5", "out-under-a-file"])
def test_render_af_gallery_bad_floor_exits_2(args, tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "render_af_gallery.py"
    out, blocker = tmp_path / "out", tmp_path / "blocker"
    out.mkdir()
    blocker.write_bytes(b"")
    res = subprocess.run(
        [sys.executable, str(script), "--out", str(out),
         *[a.format(blocker=blocker) for a in args]],
        capture_output=True, text=True,
    )
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert list(out.iterdir()) == [] and blocker.read_bytes() == b""


@pytest.mark.parametrize("argv,code", [
    (["--suite", "norm"], 0),
    (["--suite", "norm", "--seed", "-1"], 2),
    (["--suite", "norm", "psd", "--probes", "0"], 2),
])
def test_full_verification_exit_codes(argv, code, capsys):
    # a run over several suites exits as one suite does: 2 for refused
    # input, 1 kept for a failed identity
    assert cli.main(["verify", *argv]) == code


def test_full_verification_refuses_zero_probes(capsys):
    # README: --probes 0 is a refused input, exit 2, not a failed check
    assert cli.main(["verify", "--suite", "psd", "--probes", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: psd: ") and err.count("\n") == 1


@pytest.mark.parametrize("codes,code", [
    ({"norm": 1, "psd": 0}, 1), ({"norm": 1, "psd": 2}, 2), ({"norm": 2, "psd": 1}, 2),
])
def test_full_verification_refusal_outranks_failure(codes, code, monkeypatch, capsys):
    # each suite passes (0), fails a check (1) or refuses its input (2);
    # a refusal anywhere in the run outranks a failed check
    def suite(name):
        def run(args, tol):
            if codes[name] == 2:
                raise InvalidParameterError("refused")
            return [CheckReport(name, 1, 1, 0.0, float(codes[name]), 0.5)]
        return run

    for name in codes:
        monkeypatch.setitem(cli._SUITE_FUNCS, name, suite(name))
    assert cli.main(["verify", "--suite", "norm", "psd"]) == code
    out = capsys.readouterr().out
    assert [ln.split()[0] for ln in out.splitlines()] == [n for n in codes if codes[n] < 2]
