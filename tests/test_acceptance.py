"""End-to-end acceptance checks.

Each test covers one gate criterion and prints a single pass/fail line to
the terminal (bypassing capture) so a full run reads as a ten-line scorecard.
The printed verdict reflects the same conditions the asserts enforce.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mimoaf import (
    CANONICAL_SIGMA,
    SteeringConfig,
    check_mimo_energy,
    check_norm_identity,
    chirp_multiply,
    cross_ambiguity,
    dilate,
    gen_gaussian,
    gen_lfm,
    gen_rect,
    gen_subcarrier_set,
    gram_psd_check,
    mimo_inner_product,
    moyal_inner_product,
    random_probe_set,
    recover_scalar,
    trace_psd_check,
    trace_reduction_check,
    verify_dilation,
    verify_fourier_rotation,
    verify_lfm_shear,
    verify_mimo_symmetry,
    verify_mirror,
)
from mimoaf.io_formats import read_signal, read_surface

from conftest import cross_ambiguity_oracle, mixture_basis, random_mixture


def announce(capsys, index, text, ok):
    with capsys.disabled():
        print(f"[{index:2d}] {text}: {'pass' if ok else 'fail'}")


def n256_family():
    return {
        "rect": gen_rect(1.0, 1 / 128),
        "gaussian": gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0),
        "lfm": gen_lfm(1.0, 4.0, 1 / 128),
    }


def test_c01_norm_identity(capsys):
    worst_rel = 0.0
    worst_time = 0.0
    for name, u in n256_family().items():
        assert u.n == 256
        t0 = time.perf_counter()
        rep = check_norm_identity(u, u, n_doppler=1024)
        worst_time = max(worst_time, time.perf_counter() - t0)
        worst_rel = max(worst_rel, rep.rel_err)
    ok = worst_rel <= 1e-6 and worst_time < 1.0
    announce(
        capsys, 1,
        f"norm identity rect/gaussian/lfm N=256 (max rel {worst_rel:.2e}, "
        f"slowest pair {worst_time:.3f}s)",
        ok,
    )
    assert worst_rel <= 1e-6
    assert worst_time < 1.0


def test_c02_mimo_energy(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        waves = list(gen_subcarrier_set(m, 1.0, 1 / 128))
        for gamma in (1.0, 2.0):
            cfg = SteeringConfig(m, gamma)
            rep = check_mimo_energy(waves, cfg)
            worst = max(worst, abs(rep.lhs - m * m) / (m * m))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    announce(
        capsys, 2,
        f"mimo energy M in 2,3 gamma in 1,2 (max rel {worst:.2e}, {elapsed:.1f}s)",
        ok,
    )
    assert worst <= 1e-5
    assert elapsed < 60.0


def test_c03_moyal(capsys):
    basis = mixture_basis(gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0))
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        quad = [random_mixture(basis, rng) for _ in range(4)]
        worst = max(worst, moyal_inner_product(*quad).rel_err)

    subs = gen_subcarrier_set(2, 1.0, 1 / 128)
    cfg = SteeringConfig(2, 1.0)
    sub_basis = [mixture_basis(s) for s in subs]
    worst_mimo = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        us = [random_mixture(b, rng) for b in sub_basis]
        vs = [random_mixture(b, rng) for b in sub_basis]
        rep = mimo_inner_product(us, vs, cfg, 0.3, 0.7, n_doppler=512)
        worst_mimo = max(worst_mimo, rep.rel_err)

    self_rep = mimo_inner_product(list(subs), list(subs), cfg, 0.0, 0.0, n_doppler=512)
    self_gap = abs(self_rep.lhs - 4.0)

    ok = worst <= 1e-6 and worst_mimo <= 1e-6 and self_gap <= 1e-6 * 4.0
    announce(
        capsys, 3,
        f"moyal 20 quadruples (max rel {worst:.2e}), 5 mimo pairs "
        f"(max rel {worst_mimo:.2e}), self-pairing M^2 gap {self_gap:.2e}",
        ok,
    )
    assert worst <= 1e-6
    assert worst_mimo <= 1e-6
    assert self_gap <= 1e-6 * 4.0


def test_c04_positive_definiteness(capsys):
    u = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 4.0)
    pair = [u, chirp_multiply(u, 2.0)]
    cfg = SteeringConfig(2, 1.0)
    worst_eig = 0.0
    worst_path = 0.0
    for seed in range(100):
        probes = random_probe_set(u, n_points=8, seed=seed, n_doppler=1024)
        rep = gram_psd_check(u, probes, n_doppler=1024)
        assert rep.passed, f"gram psd failed at seed {seed}"
        worst_eig = max(worst_eig, -rep.info["min_eig"] / rep.info["max_eig"])
        worst_path = max(worst_path, rep.info["path_gap"] / u.energy())
        trep = trace_psd_check(pair, probes, cfg, n_doppler=1024)
        assert trep.passed, f"trace psd failed at seed {seed}"
        worst_eig = max(worst_eig, -trep.info["min_eig"] / trep.info["max_eig"])
        worst_path = max(worst_path, trep.info["path_gap"] / 2.0)
    ok = worst_eig <= 1e-9 and worst_path <= 1e-8
    announce(
        capsys, 4,
        f"100 seeded probe grams, single + M=2 trace (worst eig ratio "
        f"{worst_eig:.1e}, worst path gap {worst_path:.1e})",
        ok,
    )
    assert worst_eig <= 1e-9
    assert worst_path <= 1e-8


def test_c05_scalar_recovery(capsys):
    u = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0)
    rng = np.random.default_rng(12)
    worst_mod = 0.0
    worst_res = 0.0
    for theta in rng.uniform(0.0, 2 * math.pi, size=20):
        v = u.replace_samples(np.exp(1j * theta) * u.samples)
        rep = recover_scalar(u, v)
        assert rep.passed
        worst_mod = max(worst_mod, abs(abs(rep.info["lambda"]) - 1.0))
        worst_res = max(worst_res, rep.info["residual"])
    gate = recover_scalar(u, u.replace_samples(2.0 * u.samples))
    gated = gate.info["af_equal"] is False
    ok = worst_mod <= 1e-6 and worst_res <= 1e-6 and gated
    announce(
        capsys, 5,
        f"20 unimodular recoveries (|lambda| gap {worst_mod:.1e}, residual "
        f"{worst_res:.1e}); scaled pair correctly reported unequal",
        ok,
    )
    assert worst_mod <= 1e-6
    assert worst_res <= 1e-6
    assert gated


def test_c06_trace_reduction(capsys):
    u = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0)
    worst_gap = 0.0
    for m in (2, 3):
        rng = np.random.default_rng(m)
        waves = [
            u.replace_samples(np.exp(1j * t) * u.samples)
            for t in rng.uniform(0.0, 2 * math.pi, size=m)
        ]
        rep = trace_reduction_check(waves, SteeringConfig(m, 1.0))
        assert rep.passed and rep.info["reduced"]
        worst_gap = max(worst_gap, rep.info["gap"])

    ortho = list(gen_subcarrier_set(3, 1.0, 1 / 128))
    refuse = trace_reduction_check(ortho, SteeringConfig(3, 1.0), n_doppler=512)
    refused = (
        refuse.passed
        and not refuse.info["reduced"]
        and len(refuse.info["failing_pairs"]) == 3
        and all(not ok for ok in refuse.info["pair_status"].values())
    )
    ok = worst_gap <= 1e-8 and refused
    announce(
        capsys, 6,
        f"phase families collapse to M*chi00 (max gap {worst_gap:.1e}); "
        f"orthonormal set refused with 3 failing pairs",
        ok,
    )
    assert worst_gap <= 1e-8
    assert refused


def test_c07_symmetry_battery(capsys):
    t0 = time.perf_counter()
    rot = gen_gaussian(CANONICAL_SIGMA, 1 / 16, 8.0)
    g = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0)
    wide = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 4.0)
    singles = {
        "J": (verify_fourier_rotation(rot), 1e-5),
        "mirror": (verify_mirror(g), 1e-9),
        "shear": (verify_lfm_shear(g, rate=4.0), 1e-4),
        "dilate": (verify_dilation(wide, b=2.0), 1e-4),
    }

    rot_subs = list(gen_subcarrier_set(2, 8.0, 1 / 16))
    subs = gen_subcarrier_set(2, 1.0, 1 / 128)
    rng = np.random.default_rng(3)
    mixed = [
        subs[0],
        random_mixture([subs[0], subs[1], chirp_multiply(subs[0], 2.0)], rng),
    ]
    thetas = np.random.default_rng(6).uniform(0, 2 * math.pi, size=2)
    fam = [wide.replace_samples(np.exp(1j * t) * wide.samples) for t in thetas]
    cfg = SteeringConfig(2, 1.0)
    mimo = {
        "J": (verify_mimo_symmetry(rot_subs, cfg, 0.25, 0.25, verify_fourier_rotation), 1e-5),
        "mirror": (verify_mimo_symmetry(mixed, cfg, 0.3, 0.7, verify_mirror), 1e-9),
        "shear": (verify_mimo_symmetry(fam, cfg, 0.3, 0.7, verify_lfm_shear, rate=4.0), 1e-4),
        "dilate": (verify_mimo_symmetry(fam, cfg, 0.3, 0.7, verify_dilation, b=2.0), 1e-4),
    }

    # the mirror lift must actually need the (fs, fs') exchange
    pairs = [[cross_ambiguity(a, b) for b in mixed] for a in mixed]
    ref = pairs[0][0]
    w = 2 * math.pi * cfg.gamma

    def combine(fa, fb):
        out = np.zeros_like(ref.values)
        for i in range(2):
            for j in range(2):
                out += pairs[i][j].values * np.exp(1j * w * (fa * i - fb * j))
        return out

    S = combine(0.3, 0.7)
    phase = np.exp(-1j * 2 * math.pi * np.outer(ref.tau_axis, ref.nu_axis))
    flipped = S[::-1, 1:][:, ::-1]
    bad = np.conj(S) * phase
    swap_needed = (
        np.linalg.norm(flipped - bad[:, 1:]) / np.linalg.norm(bad[:, 1:]) >= 1e-3
    )

    elapsed = time.perf_counter() - t0
    all_pass = all(r.passed and r.rel_err <= tol for r, tol in singles.values())
    all_mimo = all(r.passed and r.rel_err <= tol for r, tol in mimo.values())
    ok = all_pass and all_mimo and swap_needed and elapsed < 30.0
    detail = ", ".join(
        f"{k} {singles[k][0].rel_err:.1e}/{mimo[k][0].rel_err:.1e}" for k in singles
    )
    announce(
        capsys, 7,
        f"symmetry single/MIMO ({detail}; swap confirmed; {elapsed:.1f}s)",
        ok,
    )
    for name, (rep, tol) in {**singles, **mimo}.items():
        assert rep.passed and rep.rel_err <= tol, name
    assert swap_needed
    assert elapsed < 30.0


def test_c08_oracle_agreement(capsys):
    families = {
        "rect": gen_rect(1.0, 1 / 128),
        "gaussian": gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0),
        "lfm": gen_lfm(1.0, 4.0, 1 / 128),
        "subcarrier": gen_subcarrier_set(2, 1.0, 1 / 128)[1],
    }
    worst = 0.0
    for name, u in families.items():
        assert u.n <= 256
        for cyclic in (False, True):
            fast = cross_ambiguity(u, n_doppler=u.n, cyclic=cyclic)
            slow = cross_ambiguity_oracle(u, n_doppler=u.n, cyclic=cyclic)
            denom = np.linalg.norm(slow.values)
            worst = max(worst, np.linalg.norm(fast.values - slow.values) / denom)
    ok = worst <= 1e-10
    announce(
        capsys, 8,
        f"fft pipeline vs direct-sum oracle, 4 families x 2 lag modes "
        f"(max rel {worst:.1e})",
        ok,
    )
    assert worst <= 1e-10


def test_c09_closed_forms(capsys):
    g = gen_gaussian(CANONICAL_SIGMA, 1 / 64, 2.0)
    s = cross_ambiguity(g, n_doppler=1024)
    T, N = np.meshgrid(s.tau_axis, s.nu_axis, indexing="ij")
    gauss_gap = float(
        np.max(np.abs(s.values - np.exp(-np.pi * (T**2 + N**2) / 2)
                      * np.exp(-1j * np.pi * T * N)))
    )

    r = gen_rect(1.0, 1 / 128)
    sr = cross_ambiguity(r)
    cut = np.abs(sr.values[:, sr.doppler_index(0.0)])
    tri_gap = float(np.max(np.abs(cut - np.clip(1.0 - np.abs(sr.tau_axis), 0.0, None))))

    fine = gen_rect(1.0, 1 / 4096)
    nu = np.linspace(-3.0, 3.0, 401)
    row = fine.dt * (np.abs(fine.samples) ** 2) @ np.exp(
        1j * 2 * np.pi * np.outer(fine.times, nu)
    )
    sinc_gap = float(np.max(np.abs(np.abs(row) - np.abs(np.sinc(nu)))))

    # the remap (tau, nu) -> (2 tau, nu/2) of the standard grid lands on
    # every other lag row and the central bins of a parent surface with
    # twice the Doppler bins
    u = gen_gaussian(CANONICAL_SIGMA, 1 / 32, 2.0)
    n, n_d = u.n, 32 * u.n
    half = (n - 1) // 2
    parent = cross_ambiguity(u, n_doppler=2 * n_d)
    remap = parent.values[n - 1 - 2 * half : n + 2 * half : 2, n_d // 2 : n_d // 2 + n_d]
    Tm, Nm = np.meshgrid(
        u.dt * np.arange(-half, half + 1), np.fft.fftshift(np.fft.fftfreq(n_d, d=u.dt)),
        indexing="ij",
    )
    closed = np.exp(-np.pi * ((2 * Tm) ** 2 + (Nm / 2) ** 2) / 2) * np.exp(
        -1j * np.pi * (2 * Tm) * (Nm / 2)
    )
    m2_gap = float(np.linalg.norm(remap - closed) / np.linalg.norm(closed))

    ok = gauss_gap <= 1e-6 and tri_gap <= 1e-6 and sinc_gap <= 1e-6 and m2_gap <= 1e-4
    announce(
        capsys, 9,
        f"closed forms: gaussian {gauss_gap:.1e}, triangle {tri_gap:.1e}, "
        f"sinc {sinc_gap:.1e}, dilation remap {m2_gap:.1e}",
        ok,
    )
    assert gauss_gap <= 1e-6
    assert tri_gap <= 1e-6
    assert sinc_gap <= 1e-6
    assert m2_gap <= 1e-4


def test_c10_cli_contract(capsys, tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "mimoaf", *map(str, args)],
            capture_output=True, text=True,
        )

    sig_a, sig_b = tmp_path / "a.sig", tmp_path / "b.sig"
    assert run("gen", "--family", "gaussian", "-o", sig_a).returncode == 0
    assert run("gen", "--family", "gaussian", "-o", sig_b).returncode == 0
    gen_same = sig_a.read_bytes() == sig_b.read_bytes()

    sur_a, sur_b = tmp_path / "a.sur", tmp_path / "b.sur"
    assert run("af", "--u", sig_a, "-o", sur_a).returncode == 0
    assert run("af", "--u", sig_a, "-o", sur_b).returncode == 0
    af_same = sur_a.read_bytes() == sur_b.read_bytes()

    sig = read_signal(sig_a)
    round_sig = np.array_equal(
        sig.samples, gen_gaussian(CANONICAL_SIGMA, 1 / 64, 4.0).samples
    )
    sur = read_surface(sur_a)
    round_sur = np.array_equal(sur.values, cross_ambiguity(sig, n_doppler=1024).values)

    ec0 = run("verify", "--suite", "norm").returncode == 0
    ec1 = run("verify", "--suite", "norm", "--tol", "1e-20").returncode == 1
    ec2 = run("af", "--u", tmp_path / "missing.sig").returncode == 2

    ok = gen_same and af_same and round_sig and round_sur and ec0 and ec1 and ec2
    announce(
        capsys, 10,
        f"cli determinism {gen_same and af_same}, round-trips "
        f"{round_sig and round_sur}, exit codes 0/1/2 {ec0 and ec1 and ec2}",
        ok,
    )
    assert gen_same and af_same
    assert round_sig and round_sur
    assert ec0 and ec1 and ec2
