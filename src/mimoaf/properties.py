"""Numerical certification of ambiguity-function identities.

Each check computes both sides of one identity by routes that share as
little code as possible (quadrature of an FFT-built surface on one side,
direct inner products or closed forms on the other) and returns a
:class:`CheckReport` with the observed error against a pinned tolerance.

Report lines serialize as ``name status lhs rhs abs_err rel_err tol`` and
are what the command-line verify suites emit.

Memory: no check holds more than three surfaces of its grid at once, plus
the block of lag products of the surface being built.  The whole-surface
checks (uniqueness, collinearity, trace reduction) build their surfaces in
an order that lets each be dropped once it has been read, and reduce with
in-place subtract and square; the two routes still share no surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .ambiguity import (
    AmbiguitySurface,
    SteeringConfig,
    _check_doppler_count,
    cross_ambiguity,
    mimo_ambiguity,
    mimo_energy_quadrature,
    spatial_integral,
)
from .errors import GridMismatchError, InvalidParameterError
from .signals import HeisenbergPoint, SampledSignal, _require_count, heisenberg_shift, inner_product

__all__ = [
    "CheckReport",
    "ProbeSet",
    "make_report",
    "random_probe_set",
    "surface_quadrature_inner",
    "check_norm_identity",
    "check_mimo_energy",
    "moyal_inner_product",
    "mimo_inner_product",
    "gram_psd_check",
    "trace_psd_check",
    "recover_scalar",
    "collinearity_check",
    "trace_reduction_check",
]

_TINY = 1e-30
# probe delays and Dopplers stay within this fraction of their half-axes
_PROBE_SPAN = 1.0 / 6.0
# internal gates, held fixed whatever tolerance a check reports against:
_PATH_TOL = 1e-8  # psd routes (a) and (b), relative to the energy
_AF_TOL = 1e-8  # uniqueness: L2 distance at which two self surfaces coincide
_SUM_TOL = 1e-8  # collinearity: summed surfaces against the prediction, by peak


def _fmt(x: complex) -> str:
    if x.imag == 0.0:
        return f"{x.real:.17g}"
    return f"{x.real:.17g}{x.imag:+.17g}j"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check.

    passed holds exactly when rel_err <= tol (rel_err degrades to the
    absolute error when the reference magnitude vanishes).
    """

    name: str
    passed: bool
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    info: dict = field(default_factory=dict, compare=False, repr=False)

    def format_line(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"{self.name} {status} {_fmt(complex(self.lhs))} {_fmt(complex(self.rhs))} "
            f"{self.abs_err:.17g} {self.rel_err:.17g} {self.tol:.17g}"
        )


def make_report(
    name: str,
    lhs: complex,
    rhs: complex,
    tol: float,
    scale: float | None = None,
) -> CheckReport:
    """Compare two computed values at a relative tolerance.

    scale overrides the denominator of the relative error; without it the
    larger magnitude of the two sides is used, and a vanishing denominator
    falls back to the absolute error.
    """
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    base = scale if scale is not None else max(abs(lhs), abs(rhs))
    if base > _TINY:
        rel_err = abs_err / base
    else:
        rel_err = abs_err
    return CheckReport(name, rel_err <= tol, lhs, rhs, abs_err, rel_err, tol)


@dataclass(frozen=True)
class ProbeSet:
    """Grid-aligned Heisenberg points (x3 = 0) with optional weights,
    feeding the positive-definiteness checks."""

    points: tuple[HeisenbergPoint, ...]
    coefficients: npt.NDArray[np.complex128] | None = None

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise InvalidParameterError("probe set needs at least one point")
        for p in self.points:
            if p.x3 != 0.0:
                raise InvalidParameterError("probe points must have x3 = 0")
        if self.coefficients is not None:
            c = np.asarray(self.coefficients, dtype=np.complex128)
            if c.shape != (len(self.points),):
                raise InvalidParameterError("coefficient count must match point count")
            c = c.copy()
            c.setflags(write=False)
            object.__setattr__(self, "coefficients", c)


def random_probe_set(
    signal: SampledSignal,
    n_points: int = 8,
    seed: int = 0,
    n_doppler: int | None = None,
) -> ProbeSet:
    """Seeded probe points aligned to the surface grid of the signal.

    Delays are multiples of dt and Dopplers multiples of the surface's
    Doppler step; both stay within _PROBE_SPAN of the respective half-axes
    so that pairwise group differences remain on the surface and signal
    shifts stay inside the zero-padded part of the window.
    """
    _require_count("n_points", n_points, 1)
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    n = signal.n
    n_doppler = _check_doppler_count(n_doppler, n, cyclic=False)
    d_nu = 1.0 / (n_doppler * signal.dt)
    max_k = max(1, int((n - 1) * _PROBE_SPAN))
    max_l = max(1, int((n_doppler // 2) * _PROBE_SPAN))
    rng = np.random.default_rng(seed)
    ks = rng.integers(-max_k, max_k + 1, size=n_points)
    ls = rng.integers(-max_l, max_l + 1, size=n_points)
    coeff = (rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)) / math.sqrt(2)
    points = tuple(
        HeisenbergPoint(float(k) * signal.dt, float(l) * d_nu) for k, l in zip(ks, ls)
    )
    return ProbeSet(points, coeff)


def surface_quadrature_inner(s1: AmbiguitySurface, s2: AmbiguitySurface) -> complex:
    """Riemann quadrature of s1 * conj(s2) over the shared (tau, nu) grid."""
    if (
        s1.values.shape != s2.values.shape
        or not np.array_equal(s1.tau_axis, s2.tau_axis)
        or not np.array_equal(s1.nu_axis, s2.nu_axis)
    ):
        raise GridMismatchError("surfaces live on different (tau, nu) grids")
    return complex(np.sum(s1.values * np.conj(s2.values)) * s1.d_tau * s1.d_nu)


def check_norm_identity(
    u: SampledSignal,
    v: SampledSignal,
    n_doppler: int | None = None,
    tol: float = 1e-6,
) -> CheckReport:
    """Whole-plane energy of the cross-ambiguity surface against the product
    of signal energies."""
    s = cross_ambiguity(u, v, n_doppler=n_doppler)
    lhs = s.energy()
    rhs = u.energy() * v.energy()
    return make_report("norm", lhs, rhs, tol, scale=max(abs(rhs), _TINY))


def check_mimo_energy(
    waveforms: list[SampledSignal],
    cfg: SteeringConfig,
    n_doppler: int | None = None,
    tol: float = 1e-5,
) -> CheckReport:
    """Four-fold slice energy, as the M^2 FFT pair-surface energies (integer
    gamma only), against the closed count (sum of waveform energies) squared."""
    lhs = mimo_energy_quadrature(waveforms, cfg, n_doppler)
    total = sum(w.energy() for w in waveforms)
    rhs = total * total
    return make_report("mimo-energy", lhs, rhs, tol, scale=max(abs(rhs), _TINY))


def moyal_inner_product(
    u1: SampledSignal,
    u2: SampledSignal,
    u3: SampledSignal,
    u4: SampledSignal,
    n_doppler: int | None = None,
    tol: float = 1e-6,
) -> CheckReport:
    """Moyal orthogonality: the L2 pairing of chi(u1,u3) with chi(u2,u4)
    equals <u1,u2> <u4,u3>.

    The second factor carries the conjugate ordering <u4,u3>; with
    <u3,u4> instead the identity fails at order one, which the quadrature
    route exposes immediately.
    """
    s13 = cross_ambiguity(u1, u3, n_doppler=n_doppler)
    s24 = cross_ambiguity(u2, u4, n_doppler=n_doppler)
    lhs = surface_quadrature_inner(s13, s24)
    rhs = inner_product(u1, u2) * inner_product(u4, u3)
    scale = u1.norm() * u2.norm() * u3.norm() * u4.norm()
    return make_report("moyal", lhs, rhs, tol, scale=max(scale, _TINY))


def mimo_inner_product(
    us: list[SampledSignal],
    vs: list[SampledSignal],
    cfg: SteeringConfig,
    fs: float,
    fs_prime: float,
    n_doppler: int | None = None,
    tol: float = 1e-6,
) -> CheckReport:
    """Moyal pairing of two spatial slices at fixed (fs, fs') against the
    quadruple sum of waveform inner products with steering phases."""
    if len(us) != len(vs):
        raise GridMismatchError(f"waveform counts differ: {len(us)} vs {len(vs)}")
    us[0].require_compatible(vs[0])
    A = mimo_ambiguity(us, cfg, fs, fs_prime, n_doppler)
    B = mimo_ambiguity(vs, cfg, fs, fs_prime, n_doppler)
    lhs = surface_quadrature_inner(A, B)

    m = cfg.n_elements
    P = np.empty((m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            P[i, j] = inner_product(us[i], vs[j])
    idx = np.arange(m)
    w = 2.0 * math.pi * cfg.gamma
    a1 = np.exp(1j * w * fs * idx)        # u-set row index m
    a2 = np.exp(-1j * w * fs_prime * idx)  # u-set column index m'
    a3 = np.exp(-1j * w * fs * idx)       # v-set row index n
    a4 = np.exp(1j * w * fs_prime * idx)  # v-set column index n'
    rhs = np.einsum("mn,pq,m,p,n,q->", P, np.conj(P), a1, a2, a3, a4)
    scale = math.sqrt(max(A.energy() * B.energy(), _TINY))
    return make_report("mimo-moyal", lhs, complex(rhs), tol, scale=scale)


def _dual_gram(
    waveforms: list[SampledSignal],
    surface: AmbiguitySurface,
    probes: ProbeSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix by exact inner products and by phased surface lookup.

    For z = x_j^{-1} x_i the lookup route reads
    exp(-i 2 pi z3) * chi(z1, -z2), which is <u, T(z) u> under the shift
    operator convention used throughout.
    """
    pts = probes.points
    n = len(pts)
    G_a = np.empty((n, n), dtype=np.complex128)
    G_b = np.empty((n, n), dtype=np.complex128)
    shifted = [[heisenberg_shift(w, p) for p in pts] for w in waveforms]
    for j in range(n):
        for i in range(n):
            total = 0.0 + 0.0j
            for copies in shifted:
                total += inner_product(copies[j], copies[i])
            G_a[i, j] = total
            z = pts[j].inverse().compose(pts[i])
            G_b[i, j] = np.exp(-1j * 2.0 * math.pi * z.x3) * surface.value_at(z.tau, -z.nu)
    return G_a, G_b


def _psd_report(
    name: str,
    G_a: np.ndarray,
    G_b: np.ndarray,
    probes: ProbeSet,
    energy_scale: float,
    tol: float,
) -> CheckReport:
    path_gap = float(np.max(np.abs(G_a - G_b)))
    path_rel = path_gap / max(energy_scale, _TINY)
    H = (G_a + G_a.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(H)
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    eig_ratio = max(0.0, -min_eig) / max(max_eig, _TINY)
    info = {"min_eig": min_eig, "max_eig": max_eig, "path_gap": path_gap}
    if probes.coefficients is not None:
        c = probes.coefficients
        info["quadratic_form"] = float(
            np.real(np.einsum("i,ij,j->", c, G_a, np.conj(c)))
        )
    passed = eig_ratio <= tol and path_rel <= _PATH_TOL
    rel_err = max(eig_ratio, path_rel * (tol / _PATH_TOL))
    return CheckReport(
        name, passed, min_eig, 0.0, max(0.0, -min_eig), rel_err, tol, info
    )


def gram_psd_check(
    u: SampledSignal,
    probes: ProbeSet,
    surface: AmbiguitySurface | None = None,
    n_doppler: int | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Positive definiteness of the self-ambiguity surface on the group.

    Route (a) builds the exact Gram of Heisenberg-shifted copies; route (b)
    reads the same quadratic form off the precomputed surface through the
    group product.  Asserts the routes agree to _PATH_TOL of the energy and
    the Hermitian part of (a) has no eigenvalue below -tol times the largest.
    """
    if surface is None:
        surface = cross_ambiguity(u, u, n_doppler=n_doppler)
    G_a, G_b = _dual_gram([u], surface, probes)
    return _psd_report("psd", G_a, G_b, probes, u.energy(), tol)


def trace_psd_check(
    waveforms: list[SampledSignal],
    probes: ProbeSet,
    cfg: SteeringConfig | None = None,
    n_doppler: int | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Positive definiteness of the spatially integrated (trace) surface.

    The trace surface is looked up on route (b); route (a) sums the
    per-waveform exact Grams, which the additivity of the quadratic form
    makes the matching reference.
    """
    if len(waveforms) < 1:
        raise InvalidParameterError("need at least one waveform")
    m = len(waveforms)
    if cfg is None:
        cfg = SteeringConfig(m, 1.0, max(8, m + 1))
    trace_surface = spatial_integral(waveforms, cfg, n_doppler)
    energy_scale = sum(w.energy() for w in waveforms)
    G_a, G_b = _dual_gram(waveforms, trace_surface, probes)
    return _psd_report("trace-psd", G_a, G_b, probes, energy_scale, tol)


def recover_scalar(
    u: SampledSignal,
    v: SampledSignal,
    n_doppler: int | None = None,
    tol: float = 1e-6,
) -> CheckReport:
    """Uniqueness up to a unimodular scalar.

    When the two self-ambiguity surfaces coincide (L2 distance <= _AF_TOL),
    the estimate lambda = <u,v>/energy(v) must be unimodular and reproduce
    u as lambda * v.  When the surfaces differ, the hypothesis is void: the
    report passes vacuously and records the non-equal status in info.
    Either way info["lambda"] holds the estimate.
    """
    ev = v.energy()
    if ev <= 0.0:
        raise InvalidParameterError("v has zero energy")
    su = cross_ambiguity(u, u, n_doppler=n_doppler)
    # chi(v,v) is a temporary, dropped once subtracted
    sq = np.abs(su.values - cross_ambiguity(v, v, n_doppler=n_doppler).values)
    af_dist = math.sqrt(float(np.sum(np.square(sq, out=sq))) * su.d_tau * su.d_nu)
    lam = inner_product(u, v) / ev
    info: dict = {"af_distance": af_dist, "lambda": lam}
    if af_dist <= _AF_TOL:
        diff = u.samples - lam * v.samples
        residual = math.sqrt(float(u.dt * np.sum(np.abs(diff) ** 2))) / max(u.norm(), _TINY)
        unimodular_defect = abs(abs(lam) - 1.0)
        rel_err = max(residual, unimodular_defect)
        info.update({"af_equal": True, "residual": residual})
        return CheckReport(
            "uniqueness", rel_err <= tol, abs(lam), 1.0, rel_err, rel_err, tol, info
        )
    info.update({"af_equal": False, "status": "surfaces differ; hypothesis void"})
    return CheckReport("uniqueness", True, abs(lam), 1.0, 0.0, 0.0, tol, info)


def collinearity_check(
    u2: SampledSignal,
    u3: SampledSignal,
    n_doppler: int | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """A sum of two self surfaces is itself (a scaled) self surface exactly
    when the waveforms are collinear.

    Collinearity is detected as Cauchy-Schwarz equality.  When it holds,
    the summed surface is compared against the closed prediction
    (energy2 + energy3) times the self surface of the common unit
    direction, to _SUM_TOL of its peak; when it fails, the report carries
    the inner-product ratio as the counterexample witness.
    """
    e2 = u2.energy()
    e3 = u3.energy()
    if e2 <= 0.0 or e3 <= 0.0:
        raise InvalidParameterError("collinearity needs nonzero inputs")
    ip = inner_product(u2, u3)
    cs_ratio = abs(ip) / (u2.norm() * u3.norm())
    defect = max(0.0, 1.0 - cs_ratio)
    info: dict = {"cs_ratio": cs_ratio, "inner": ip}
    if defect <= tol:
        alpha = ip / e3  # u2 = alpha * u3
        info["alpha"] = alpha
        unit = u2.replace_samples(u2.samples / u2.norm())
        # each surface is a temporary, dropped once summed or scaled
        gap = (
            cross_ambiguity(u2, u2, n_doppler=n_doppler).values
            + cross_ambiguity(u3, u3, n_doppler=n_doppler).values
        )
        target = (e2 + e3) * cross_ambiguity(unit, unit, n_doppler=n_doppler).values
        peak = max(float(np.max(np.abs(target))), _TINY)
        np.subtract(gap, target, out=gap)
        sum_gap = float(np.max(np.abs(gap))) / peak
        info["sum_gap"] = sum_gap
        passed = sum_gap <= _SUM_TOL
        rel_err = max(defect, sum_gap * (tol / _SUM_TOL))
        return CheckReport("collinearity", passed, cs_ratio, 1.0, defect, rel_err, tol, info)
    return CheckReport("collinearity", False, cs_ratio, 1.0, defect, defect, tol, info)


def trace_reduction_check(
    waveforms: list[SampledSignal],
    cfg: SteeringConfig,
    n_doppler: int | None = None,
    tol: float = 1e-8,
) -> CheckReport:
    """Trace-surface collapse for unimodular-collinear waveform sets.

    If every pair passes the uniqueness check (equal self surfaces and a
    unimodular ratio), the spatially integrated trace must equal M times
    the first waveform's self surface.  Otherwise at least one pair must
    fail collinearity; the failing pairs are reported.  The check passes
    when whichever branch applies holds.
    """
    if len(waveforms) < 1:
        raise InvalidParameterError("empty waveform set")
    cfg.require_integer_gamma()
    m = len(waveforms)
    pair_status: dict[tuple[int, int], bool] = {}
    reduced = True
    for i in range(m):
        for j in range(i + 1, m):
            rep = recover_scalar(waveforms[i], waveforms[j], n_doppler=n_doppler)
            ok = bool(rep.info.get("af_equal")) and rep.rel_err <= rep.tol
            pair_status[(i, j)] = ok
            reduced = reduced and ok
    if reduced:
        trace = spatial_integral(waveforms, cfg, n_doppler)
        target = m * cross_ambiguity(waveforms[0], waveforms[0], n_doppler=n_doppler).values
        peak = max(float(np.max(np.abs(target))), _TINY)
        np.subtract(trace.values, target, out=target)
        gap = float(np.max(np.abs(target))) / peak
        info = {"reduced": True, "gap": gap}
        return CheckReport(
            "trace-reduction", gap <= tol, gap, 0.0, gap, gap, tol, info
        )
    failing = []
    for i in range(m):
        for j in range(i + 1, m):
            rep = collinearity_check(waveforms[i], waveforms[j], n_doppler=n_doppler)
            if not rep.passed:
                failing.append((i, j))
    passed = len(failing) > 0
    info = {"reduced": False, "failing_pairs": failing, "pair_status": pair_status}
    rel_err = 0.0 if passed else 1.0
    return CheckReport(
        "trace-reduction", passed, float(len(failing)), 0.0, rel_err, rel_err, tol, info
    )
