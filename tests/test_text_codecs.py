"""The SIG1 and CSV text codecs and the surface files the CLI writes:
pinned bytes, malformed input, the exact round trip and the memory of the
row-by-row CSV writer."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimoaf import (
    CANONICAL_SIGMA,
    FileFormatError,
    SampledSignal,
    cli,
    cross_ambiguity,
    gen_gaussian,
    gen_rect,
    gen_subcarrier_set,
)
from mimoaf.ambiguity import AmbiguitySurface
from mimoaf.io_formats import (
    read_signal,
    read_surface_csv,
    write_signal,
    write_surface_blocks,
    write_surface_csv,
)

from conftest import traced_peak


def _integer_signal(n: int, k: int, dt: float = 0.125) -> SampledSignal:
    """Small-integer samples on a power-of-two step, so that a surface of it
    carries no rounding but the FFT's own."""
    m = np.arange(n)
    return SampledSignal((m * k) % 5 - 2 + 1j * ((m + k) % 3 - 1), dt, -(n // 2) * dt)


def _signed_zero_surface() -> AmbiguitySurface:
    # -0.0 in both parts, infinities, subnormals and 17-digit values
    values = np.array([
        [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)],
        [complex(np.inf, -np.inf), complex(5e-324, -2.2250738585072009e-308), 0.1 - 1j / 3],
    ])
    return AmbiguitySurface(values, np.array([-0.25, 0.0]), np.array([-1.0, -0.5, 0.0]))


def _run_cli(*argv):
    assert cli.main([*map(str, argv)]) == 0


def _af_outputs(d, *argv):
    """af on the case's signals to SUR1, CSV and a dB heatmap in one run,
    then to a linear heatmap.  cli.csv must equal write_surface_csv's af.csv."""
    _run_cli("af", *argv, "-o", d / "af.sur", "--csv", d / "cli.csv", "--ppm", d / "db.ppm")
    _run_cli("af", *argv, "--linear", "--ppm", d / "linear.ppm")


def _write_rect(d):
    u = gen_rect(1.0, 1 / 16)
    write_signal(d / "u.sig", u)
    write_surface_csv(d / "af.csv", cross_ambiguity(u))
    _af_outputs(d, "--u", d / "u.sig", "--n-doppler", 4 * u.n)


def _write_odd_cross(d):
    u, v = _integer_signal(7, 1), _integer_signal(7, 2)
    write_signal(d / "u.sig", u)
    write_signal(d / "v.sig", v)
    write_surface_csv(d / "af.csv", cross_ambiguity(u, v))
    _af_outputs(d, "--u", d / "u.sig", "--v", d / "v.sig", "--n-doppler", 4 * u.n)


def _write_wigner(d):
    write_signal(d / "u.sig", gen_gaussian(CANONICAL_SIGMA, 1 / 8, 2.0))
    _run_cli("af", "--u", d / "u.sig", "--wigner",
             "-o", d / "w.sur", "--csv", d / "w.csv", "--ppm", d / "w.ppm")


def _mimo_outputs(d, tag, *argv):
    paths = [d / "s0.sig", d / "s1.sig"]
    for path, w in zip(paths, gen_subcarrier_set(2, 0.5, 1 / 32)):
        write_signal(path, w)
    _run_cli("mimo", "--inputs", *paths, "--n-doppler", 64, *argv,
             "-o", d / f"{tag}.sur", "--csv", d / f"{tag}.csv", "--ppm", d / f"{tag}.ppm")


def _write_signed_zeros(d):
    samples = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.5, 1e-310),
                        complex(0.1, -0.0)])
    write_signal(d / "u.sig", SampledSignal(samples, 0.1, -0.2))
    write_surface_csv(d / "af.csv", _signed_zero_surface())


def _write_spatial_grid(d):
    paths = [d / "a.sig", d / "b.sig"]
    write_signal(paths[0], _integer_signal(8, 1))
    write_signal(paths[1], _integer_signal(8, 3))
    _run_cli("mimo", "--inputs", *paths, "--slice-spatial", "--K", 4, "--csv", d / "grid.csv")
    _run_cli("mimo", "--inputs", *paths, "--slice-spatial", "--K", 4, "--tau", 0.25,
             "-o", d / "grid.sur", "--ppm", d / "grid.ppm")


# sha256 of every file each case writes.  The SIG1 and CSV pins were taken
# from the per-line writers these codecs replace; the SUR1, PPM and other CLI
# pins from the CLI that streamed a SUR1 file alone and built the whole
# surface for every other output; the SUR1 and CSV surface pins of rect,
# odd-cross, mimo-slice and mimo-trace were re-taken when the Doppler stage
# became one unscaled FFT of window-shifted input (their PPM bytes held, and
# the Wigner and spatial-grid outputs, which took no such FFT, kept every
# byte).  The Wigner SUR1 and CSV pins were re-taken when the distribution
# went through the same block loop, one unscaled inverse FFT of reversed,
# sign-weighted products in place of a forward FFT and a half swap (its PPM
# bytes held; both agree with an extended-precision direct sum to about
# 1.3e-16 of the peak).  The surface cases also pin the FFT's rounding, and
# the grid the steering product's, of exact inputs: a numpy or BLAS build
# that rounds those differently changes the pins without a codec fault.
_RECT_CSV = "4eb6da79770a20661415d41f04a7e62f36c9d7006ceaad2d26943f4e80fd0fa0"
_ODD_CROSS_CSV = "c02fa45157f91ca1f609fa05e574ddf4a00eb2e970c44a74e2b759ee165f7366"
_SUBCARRIERS = {
    "s0.sig": "8110c3087204b4efbdde431f867ea0023700455d38afbd6531571331a3ba4708",
    "s1.sig": "fa343e9dbbf5d4020097bf2e8d1a08e9cb683b5f3bfa25bf51c71174142f5b35",
}
PINNED = {
    "rect": (_write_rect, {
        "af.csv": _RECT_CSV,
        "cli.csv": _RECT_CSV,
        "af.sur": "02ad316c1193ff4c15a6f238a53fa7980a6af0066da85244c6031b40c95a0f2f",
        "db.ppm": "2ed32a5123de98befbe8478ae2856e3364844523d925ba65a2fc06220ef01a02",
        "linear.ppm": "45e42218998485a62ca2e9b00228d98803b2d28faee3a961160d7b8b98c4022e",
        "u.sig": "adac0fd9023e6cc650c01c6de945a7d75c445b960e0f90370e91aee4feea5b9b",
    }),
    "odd-cross": (_write_odd_cross, {
        "af.csv": _ODD_CROSS_CSV,
        "cli.csv": _ODD_CROSS_CSV,
        "af.sur": "1dcacfd4c54fc0ef4ac5f80204573388e219ea52358bc992c6823ceae0add5d5",
        "db.ppm": "13714ee83b90ba7583c072b9e887a0501c4f53924a3058a3c35ccfb7fa54613d",
        "linear.ppm": "9f08940be6f2be6bc92966f130dd6d527d9fdb962c5e69b914dd846bb34b0856",
        "u.sig": "7e7e18f1405d54ce994f1fc319e2a5ffe75d6c6ba7e2fbf1ea9eff37acf02120",
        "v.sig": "db2ba360e6cc171360216f774d0f8409732d696cc12a1349f44248269b6dd101",
    }),
    "signed-zeros": (_write_signed_zeros, {
        "af.csv": "ceadef881d06065ecb8f382eb8e8fe922ebf24f594cd7c9799049654d50b4575",
        "u.sig": "54d15e21ef8efedc9bd3b0657d5eb42e9715410284457ef50299364f8ab334a7",
    }),
    "spatial-grid": (_write_spatial_grid, {
        "a.sig": "618485f984a55708775e2da0ce78651f9e49a39038ec35d1865aee3eb0153027",
        "b.sig": "6beacecdb4916eae442a3c9b1d9b73ba3afe183778375561dc58ce274cfaa802",
        "grid.csv": "123c90eb20879909a218bfcd692ddf77def0bfdbbe53d782983611eae1c615ed",
        "grid.sur": "70b945a4d1ce56386b5bff5f97c39b933810c14e0ce505c0bff28016a74f2a8c",
        "grid.ppm": "497abc7085ade839df8037976486ccc9d652abe1af0b90c805252c823075afad",
    }),
    "wigner": (_write_wigner, {
        "u.sig": "7a2a1ee0f613ba48319d4c19ecc3d3cb34f825053452254b0d16510ea4741659",
        "w.sur": "c44e7da21618d515adcb22b49980f9d5c68426d554bca750f259e38dab7a74cd",
        "w.csv": "59efca289eac5b74cd206ba0cbeb9fd57c50ffb223844c59137d0c65156f9704",
        "w.ppm": "b3b28d483cd0d191c0bd76daefc1b710fbbf8a880b723bf582e542fa9da83c28",
    }),
    "mimo-slice": (lambda d: _mimo_outputs(d, "slice", "--fs", 0.25, "--fsp", 0.75), {
        **_SUBCARRIERS,
        "slice.sur": "c0a29fd8ee18672e9421ae761e765584bab58b664ea2565e6de713bf94e92c26",
        "slice.csv": "a80a55c032fff25e928e4e106394b386a6da943b01ec3f47b26a08d005c5375c",
        "slice.ppm": "35bdf189e8568c2495845086f48b8094f140ba307f4cd0cf31ca62bfeb716559",
    }),
    "mimo-trace": (lambda d: _mimo_outputs(d, "trace", "--spatial-integral"), {
        **_SUBCARRIERS,
        "trace.sur": "d81256a2fd1a7ae27b9d736bfa820df7c917a636a25204fcc6f393cb19a6b275",
        "trace.csv": "709e83dc392ec7b8610f5181b9fb67419c019e89695b84537821a2a6df738384",
        "trace.ppm": "673ab115a1aa2bf346152105581230efdf45972b320a2b5ee4054acce1cdbafb",
    }),
}


@pytest.mark.parametrize("case", PINNED)
def test_text_files_match_pinned_bytes(case, tmp_path, capsys):
    write, pinned = PINNED[case]
    write(tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == pinned


def test_signed_zero_cells_read_back_bit_exact(tmp_path):
    s = _signed_zero_surface()
    write_surface_csv(tmp_path / "z.csv", s)
    back = read_surface_csv(tmp_path / "z.csv")
    assert back.values.view(np.uint64).tolist() == s.values.view(np.uint64).tolist()


# ------------------------------------------------------------ malformed CSV

_HEADER = "# n_tau=2 n_nu=2\n# tau0=-1 dtau=1 nu0=-0.5 dnu=0.5\ntau,nu,re,im\n"
_ROWS = ["-1,-0.5,1,2", "-1,0,3,4", "0,-0.5,5,6", "0,0,7,8"]

_MALFORMED = {
    "no-header": "".join(r + "\n" for r in _ROWS),
    "header-only-two-lines": "# n_tau=2 n_nu=2\n# tau0=-1 dtau=1 nu0=-0.5 dnu=0.5\n",
    "bad-count": _HEADER.replace("n_nu=2", "n_nu=two") + "\n".join(_ROWS) + "\n",
    "missing-axis": _HEADER.replace(" dnu=0.5", "") + "\n".join(_ROWS) + "\n",
    "zero-cells": _HEADER.replace("n_tau=2", "n_tau=0"),
    "one-lag": _HEADER.replace("n_tau=2", "n_tau=1") + "\n".join(_ROWS[:2]) + "\n",
    "one-doppler-bin": _HEADER.replace("n_nu=2", "n_nu=1") + "\n".join(_ROWS[::2]) + "\n",
    "too-few-rows": _HEADER + "\n".join(_ROWS[:3]) + "\n",
    "too-many-rows": _HEADER + "\n".join(_ROWS + _ROWS[-1:]) + "\n",
    "blank-line-extra": _HEADER + "\n".join(_ROWS[:2] + [""] + _ROWS[2:]) + "\n",
    "blank-line-for-row": _HEADER + "\n".join(_ROWS[:3] + [""]) + "\n",
    "trailing-blank-line": _HEADER + "\n".join(_ROWS) + "\n\n",
    "three-fields": _HEADER + "\n".join(_ROWS[:3] + ["0,0,7"]) + "\n",
    "five-fields": _HEADER + "\n".join(_ROWS[:3] + ["0,0,7,8,9"]) + "\n",
    "five-fields-everywhere": _HEADER + "".join(r + ",9\n" for r in _ROWS),
    "three-fields-everywhere": _HEADER + "".join(r.rsplit(",", 1)[0] + "\n" for r in _ROWS),
    "non-numeric-re": _HEADER + "\n".join(_ROWS[:3] + ["0,0,x,8"]) + "\n",
    "non-numeric-im": _HEADER + "\n".join(_ROWS[:3] + ["0,0,7,1.5j"]) + "\n",
    "empty-field": _HEADER + "\n".join(_ROWS[:3] + ["0,0,,8"]) + "\n",
    "comment-for-row": _HEADER + "\n".join(_ROWS[:3] + ["# 0,0,7,8"]) + "\n",
    "comment-extra": _HEADER + "\n".join(_ROWS[:1] + ["# note"] + _ROWS[1:]) + "\n",
    "not-utf8-header": _HEADER.replace("n_nu=2", "n_nu=\xff2") + "\n".join(_ROWS) + "\n",
    "not-utf8-row": _HEADER + "\n".join(_ROWS[:3] + ["0,0,7\xff,8"]) + "\n",
    "swapped-rows": _HEADER + "\n".join([_ROWS[1], _ROWS[0], *_ROWS[2:]]) + "\n",
    "off-grid-tau": _HEADER + "\n".join(_ROWS[:3] + ["0.5,0,7,8"]) + "\n",
    "off-grid-nu": _HEADER + "\n".join(_ROWS[:3] + ["0,-99,7,8"]) + "\n",
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_csv_is_rejected(case, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(_MALFORMED[case].encode("latin-1"))  # "\xff" is not UTF-8
    with pytest.raises(FileFormatError):
        read_surface_csv(path)


def test_well_formed_csv_reference_reads(tmp_path):
    # the text the malformed cases start from is itself accepted
    path = tmp_path / "ok.csv"
    path.write_text(_HEADER + "\n".join(_ROWS) + "\n")
    s = read_surface_csv(path)
    assert s.values.tolist() == [[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]]
    assert s.tau_axis.tolist() == [-1.0, 0.0] and s.nu_axis.tolist() == [-0.5, 0.0]


@pytest.mark.parametrize("line", ["1,x", "1", "1,2,3", "# 1,2", "1,,"])
def test_bad_sig1_sample_line_is_rejected(line, tmp_path):
    path = tmp_path / "bad.sig"
    path.write_text(f"n=2\ndt=0.5\nt0=0\n1,2\n{line}\n")
    with pytest.raises(FileFormatError):
        read_signal(path)


# ------------------------------------------------------- exact round trip

# every double but nan: finite values, both zeros, subnormals and both infinities
_doubles = st.floats(allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(n_tau=st.integers(2, 4), n_nu=st.integers(2, 4), data=st.data())
def test_csv_round_trip_is_bit_exact(n_tau, n_nu, data, tmp_path_factory):
    parts = data.draw(st.lists(_doubles, min_size=2 * n_tau * n_nu, max_size=2 * n_tau * n_nu))
    values = np.array(parts).view(np.complex128).reshape(n_tau, n_nu)
    s = AmbiguitySurface(values, 0.5 * np.arange(n_tau) - 0.5, 0.25 * np.arange(n_nu))
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    write_surface_csv(path, s)
    back = read_surface_csv(path)
    assert back.values.view(np.uint64).tolist() == s.values.view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
                      min_size=1, max_size=8))
def test_sig1_round_trip_is_bit_exact(pairs, tmp_path_factory):
    u = SampledSignal(np.array(pairs).view(np.complex128)[:, 0], 0.1, -0.3)
    path = tmp_path_factory.mktemp("sig") / "u.sig"
    write_signal(path, u)
    back = read_signal(path)
    assert back.samples.view(np.uint64).tolist() == u.samples.view(np.uint64).tolist()
    assert (back.dt, back.t0) == (u.dt, u.t0)


# ------------------------------------------- text against a per-cell reference

def _reference_csv(tau: list, nu: list, values: np.ndarray) -> str:
    """The CSV text of a surface, one f-string per cell."""
    head = (f"# n_tau={len(tau)} n_nu={len(nu)}\n"
            f"# tau0={tau[0]:.17g} dtau={tau[1] - tau[0]:.17g} "
            f"nu0={nu[0]:.17g} dnu={nu[1] - nu[0]:.17g}\ntau,nu,re,im\n")
    return head + "".join(f"{t:.17g},{f:.17g},{z.real:.17g},{z.imag:.17g}\n"
                          for t, row in zip(tau, values.tolist()) for f, z in zip(nu, row))


# axis values whose %.17g text is up to 24 characters long, kept small
# enough that an axis step does not overflow
_axis = st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=5, unique=True).map(sorted)


@settings(max_examples=80, deadline=None)
@given(tau=_axis, nu=_axis, data=st.data())
def test_csv_text_matches_per_cell_reference(tau, nu, data, tmp_path_factory):
    # every double, nan and both infinities included, against the row
    # format; the surface arrives in blocks of drawn sizes, so the reused
    # row arguments cross block boundaries
    parts = data.draw(st.lists(st.floats(), min_size=2 * len(tau) * len(nu),
                               max_size=2 * len(tau) * len(nu)))
    values = np.array(parts).view(np.complex128).reshape(len(tau), len(nu))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(tau) - 1))))
    starts = [0, *cuts]
    blocks = [(a, values[a:b]) for a, b in zip(starts, [*cuts, len(tau)])]
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    write_surface_blocks(blocks, np.array(tau), np.array(nu), csv=path)
    assert path.read_text() == _reference_csv(tau, nu, values)


def test_csv_text_of_long_axis_text_matches_reference(tmp_path):
    # axes whose every value prints 19 to 23 characters
    tau = (np.arange(6) - 2.9) / 7
    nu = (np.arange(7) - 3.1) * np.pi * 1e-17
    rng = np.random.default_rng(3)
    values = rng.standard_normal((6, 7)) * 1e-300 + 1j * rng.standard_normal((6, 7)) * 1e300
    s = AmbiguitySurface(values, tau, nu)
    write_surface_csv(tmp_path / "s.csv", s)
    text = (tmp_path / "s.csv").read_text()
    assert text == _reference_csv(tau.tolist(), nu.tolist(), values)
    assert min(len(f"{x:.17g}") for x in [*tau, *nu]) >= 19


@settings(max_examples=80, deadline=None)
@given(pairs=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
                      min_size=1, max_size=12),
       dt=st.floats(5e-324, 1e300), t0=st.floats(-1e300, 1e300))
def test_sig1_text_matches_per_sample_reference(pairs, dt, t0, tmp_path_factory):
    path = tmp_path_factory.mktemp("sig") / "u.sig"
    write_signal(path, SampledSignal(np.array([complex(*p) for p in pairs]), dt, t0))
    want = f"n={len(pairs)}\ndt={dt:.17g}\nt0={t0:.17g}\n" + "".join(
        f"{re:.17g},{im:.17g}\n" for re, im in pairs)
    assert path.read_text() == want


# ------------------------------------------------------------------ memory

def test_csv_write_peak_memory(tmp_path):
    # One lag row of text and its float lists, about 0.3 MiB, are alive at a
    # time.  The whole text of this 31x1024 surface is 1.7 MiB, past the
    # bound, so a writer that holds it all fails; the per-cell-line writer
    # this one replaced peaks at 6.8 MiB here.
    n_tau, n_nu = 31, 1024
    rng = np.random.default_rng(6)
    values = rng.standard_normal((n_tau, n_nu)) + 1j * rng.standard_normal((n_tau, n_nu))
    s = AmbiguitySurface(values, (np.arange(n_tau) - 15) / 64, (np.arange(n_nu) - 512) / 16)
    path = tmp_path / "big.csv"
    _, peak = traced_peak(write_surface_csv, path, s)
    size = path.stat().st_size
    assert size > 1.5 * 2**20
    assert peak <= 2**20
