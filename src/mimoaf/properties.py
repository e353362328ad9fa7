"""Numerical certification of ambiguity-function identities.

Each check computes both sides of one identity by routes that share as
little code as possible (an FFT-built surface, summed or read by index, on
one side; direct inner products or closed forms on the other) and returns
a :class:`CheckReport` with the observed error against a pinned tolerance.

Report lines serialize as ``name status lhs rhs abs_err rel_err tol`` and
are what the command-line verify suites emit.

Each check builds only the surfaces its routes read.  A surface is shared
only within one side of an identity, never between the two routes: a check
handed one waveform or pair twice for one side (moyal's chi(u1,u3) and
chi(u2,u4), collinearity's two self surfaces, mimo-moyal's two slices)
builds it once, found by object identity, while a symmetry check builds
both of its routes even when they coincide.  Hypotheses that concern the
waveforms alone are decided on the waveforms: trace reduction tests each
pair for a unimodular multiple by its least-squares scalar, as
recover_scalar does, and builds no pairwise surface.

Memory: no check here holds a whole surface.  The checks that reduce
surfaces to numbers (norm, the MIMO energy, both Moyal pairings,
uniqueness, collinearity and trace reduction) stream their surfaces
through the block loop, several loops in lockstep when they pair them,
and reduce each set of same-row blocks in place before the next: a sum
along each row, the rows' total rounded once by math.fsum, or a maximum.
They read only the hull of their loops' live lag rows (_row_runs), since
a row where no pair's nonzero samples overlap is +0 and adds exactly 0.
The psd checks stream the lag rows their probes' differences span, live
or not, and fill each Gram entry from the block that holds its row.  No
check depends on the block size, and each holds one block and one set of
lag products per surface it streams, plus at most one scratch block: under
2.5 MiB of arrays on the default grid, and the same at any surface size.
The symmetry checks (symmetry.py) stream the same way, all but the
rotation check.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .ambiguity import (
    AmbiguitySurface,
    _ambiguity_blocks,
    _axis_index,
    _check_doppler_count,
    _doppler_axis,
    _energy,
    _integral,
    _row_runs,
    _squared_rows,
    _steering_phases,
    _SurfaceBlocks,
    _trace_pairs,
    _unit_roots,
    mimo_beams,
    mimo_energy_quadrature,
)
from .errors import GridAlignmentError, GridMismatchError, InvalidParameterError
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
_FIT_TOL = 1e-6  # uniqueness and trace reduction: the unimodular fit of a pair


def _fmt(x: complex) -> str:
    if x.imag == 0.0:
        return f"{x.real:.17g}"
    return f"{x.real:.17g}{x.imag:+.17g}j"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check.

    It passes when its gate holds and rel_err <= tol (rel_err degrades to
    the absolute error when the reference magnitude vanishes), so it never
    passes past its tolerance.  gate is a check's internal condition (PSD
    route agreement, collinearity sum, symmetry mask coverage), which fails
    the report at any tol; a check without one leaves it True.
    """

    name: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    info: dict = field(default_factory=dict, compare=False, repr=False)
    gate: bool = True

    @property
    def passed(self) -> bool:
        return self.gate and self.rel_err <= self.tol

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
    scale: float,
) -> CheckReport:
    """Compare two computed values at a relative tolerance: the error is
    taken relative to scale, or absolute where scale vanishes.
    """
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / scale if scale > _TINY else abs_err
    return CheckReport(name, lhs, rhs, abs_err, rel_err, tol)


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
    """Riemann quadrature of s1 * conj(s2) over the shared (tau, nu) grid, by
    the streamed checks' rule: moyal_inner_product's pairing, to the bit."""
    _require_same_grid(s1, s2)
    return _integral(s1, [_conj_product_rows(s1.values, s2.values, np.empty_like(s1.values))])


def _stream(
    pairs: list[tuple[SampledSignal, SampledSignal]], n_doppler: int | None
) -> _SurfaceBlocks:
    """The block loop of sum_i chi(u_i, v_i) on the linear grid, one reused
    block buffer at a time."""
    return _ambiguity_blocks(pairs, n_doppler, cyclic=False, whole=False)


def _require_same_grid(*grids: _SurfaceBlocks | AmbiguitySurface) -> None:
    tau, nu = grids[0].tau_axis, grids[0].nu_axis
    if not all(np.array_equal(tau, g.tau_axis) and np.array_equal(nu, g.nu_axis) for g in grids):
        raise GridMismatchError("surfaces live on different (tau, nu) grids")


def _lockstep(*loops: _SurfaceBlocks) -> Iterator[tuple[np.ndarray, ...]]:
    """The same rows of every loop's surface, one grid for all, block by
    block.  A loop given twice is run once and its block handed out twice,
    so a caller that writes into one block must not read the other."""
    distinct = list(dict.fromkeys(loops))
    _require_same_grid(*distinct)
    for _, blocks in _row_runs(*distinct):
        block_of = dict(zip(distinct, blocks))
        yield tuple(block_of[loop] for loop in loops)


def _conj_product_rows(x: np.ndarray, y: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The sum of x * conj(y) along each row, formed in scratch."""
    s = np.conjugate(y, out=scratch[: len(y)])
    return np.multiply(x, s, out=s).sum(axis=1)


def _max_gap(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> float:
    """max |values - target| over the peak of |target|, from (values, target)
    blocks of one surface pair; each target block is overwritten.  The
    blocks' maxima are taken by np.max, so a nan in any block is the gap;
    no block at all (an empty hull) is a gap of 0, as all-zero blocks are."""
    peaks, gaps = [], []
    for values, target in blocks:
        peaks.append(np.max(np.abs(target)))
        gaps.append(np.max(np.abs(np.subtract(values, target, out=target))))
    return float(np.max(gaps, initial=0.0)) / max(float(np.max(peaks, initial=0.0)), _TINY)


def check_norm_identity(
    u: SampledSignal,
    v: SampledSignal,
    n_doppler: int | None = None,
    tol: float = 1e-6,
) -> CheckReport:
    """Whole-plane energy of the cross-ambiguity surface against the product
    of signal energies."""
    lhs = _energy(_stream([(u, v)], n_doppler))
    rhs = u.energy() * v.energy()
    return make_report("norm", lhs, rhs, tol, scale=abs(rhs))


def check_mimo_energy(
    waveforms: list[SampledSignal],
    gamma: float,
    n_doppler: int | None = None,
    tol: float = 1e-5,
) -> CheckReport:
    """Four-fold slice energy, as the M^2 FFT pair-surface energies (integer
    gamma only), against the closed count (sum of waveform energies) squared."""
    lhs = mimo_energy_quadrature(waveforms, gamma, n_doppler)
    total = sum(w.energy() for w in waveforms)
    rhs = total * total
    return make_report("mimo-energy", lhs, rhs, tol, scale=abs(rhs))


def _moyal_pairing(u1: SampledSignal, u2: SampledSignal, u3: SampledSignal,
                   u4: SampledSignal, n_doppler: int | None) -> complex:
    """The L2 pairing of chi(u1,u3) with chi(u2,u4), streamed in lockstep.
    Both are one route's surfaces, so a pair given twice is built once."""
    s13 = _stream([(u1, u3)], n_doppler)
    s24 = s13 if u2 is u1 and u4 is u3 else _stream([(u2, u4)], n_doppler)
    scratch = np.empty_like(s13.values)
    return _integral(s13, (_conj_product_rows(x, y, scratch) for x, y in _lockstep(s13, s24)))


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
    lhs = _moyal_pairing(u1, u2, u3, u4, n_doppler)
    rhs = inner_product(u1, u2) * inner_product(u4, u3)
    scale = u1.norm() * u2.norm() * u3.norm() * u4.norm()
    return make_report("moyal", lhs, rhs, tol, scale=scale)


def mimo_inner_product(
    us: list[SampledSignal],
    vs: list[SampledSignal],
    gamma: float,
    fs: float,
    fs_prime: float,
    n_doppler: int | None = None,
    tol: float = 1e-6,
) -> CheckReport:
    """Moyal pairing of two spatial slices at fixed (fs, fs') against the
    quadruple sum of waveform inner products with steering phases.  A slice
    is chi of its beamformed pair (mimo_beams), so the left side is moyal's
    pairing on the beams and the scale their four norms (the norm identity).
    """
    if len(us) != len(vs):
        raise GridMismatchError(f"waveform counts differ: {len(us)} vs {len(vs)}")
    U, V = mimo_beams(us, gamma, fs, fs_prime)
    us[0].require_compatible(vs[0])
    U2, V2 = (U, V) if vs is us else mimo_beams(vs, gamma, fs, fs_prime)
    lhs = _moyal_pairing(U, U2, V, V2, n_doppler)

    P = np.array([[inner_product(a, b) for b in vs] for a in us])
    a, b = _steering_phases(gamma, fs, len(us)), _steering_phases(gamma, fs_prime, len(us))
    # phases of the u-set row m and column m', then the v-set row n and column n'
    rhs = np.einsum("mn,pq,m,p,n,q->", P, np.conj(P), a, np.conj(b), np.conj(a), b)
    scale = U.norm() * V.norm() * U2.norm() * V2.norm()
    return make_report("mimo-moyal", lhs, complex(rhs), tol, scale=scale)


def _dual_gram(
    waveforms: list[SampledSignal], n_doppler: int | None, probes: ProbeSet
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix by exact inner products and by phased lookup on the
    trace surface sum_m chi(u_m, u_m) of the waveforms (one gives its self
    surface).

    For z = x_j^{-1} x_i the lookup route reads exp(-i 2 pi z3) * chi(z1, -z2),
    which is <u, T(z) u> under the shift operator convention used throughout.
    Probe p sits k_p lags and l_p Doppler bins from the surface's centre, and
    x3 = 0 gives z3 = k_j (l_j - l_i) / N on a grid cross_ambiguity built.
    Entry (i, j) reads lag k_i - k_j, so only the lags within the probes'
    spread are streamed, each entry filled from the block holding its row.
    The loop is set up, and its energies checked, before route (a).
    """
    n, dt, pts = waveforms[0].n, waveforms[0].dt, probes.points
    L, N = 2 * n - 1, _check_doppler_count(n_doppler, n, cyclic=False)
    tau_axis, nu_axis = np.arange(-(n - 1), n) * dt, _doppler_axis(N, dt)
    k = np.array([_axis_index(tau_axis, p.tau, "delay", "lag") for p in pts]) - L // 2
    l = np.array([_axis_index(nu_axis, p.nu, "Doppler", "Doppler") for p in pts]) - N // 2
    spread = int(np.ptp(k))
    if spread > L // 2 or np.ptp(l) >= N // 2:
        raise GridAlignmentError(f"probe differences leave the {L} x {N} surface")
    # sliced row r is lag r - spread
    blocks = _ambiguity_blocks(
        [(w, w) for w in waveforms], N, cyclic=False, whole=False,
        rows=slice(L // 2 - spread, L // 2 + spread + 1),
    )
    P = len(pts)
    G_a = np.zeros((P, P), dtype=np.complex128)
    G_b = np.empty((P, P), dtype=np.complex128)
    # row p of C is conj(T(x_p) w): conj(C[j]) * C is inner_product's product
    copies = [np.conj(np.stack([heisenberg_shift(w, p).samples for p in pts])) for w in waveforms]
    for j in range(P):
        for w, C in zip(waveforms, copies):
            G_a[:, j] += w.dt * np.sum(np.conj(C[j]) * C, axis=1)
    del copies
    roots = _unit_roots(N)
    for start, block in blocks:
        for j in range(P):
            row = k - k[j] + spread - start
            hit = (row >= 0) & (row < len(block))
            dl = l[hit] - l[j]
            G_b[hit, j] = roots[k[j] * dl % N] * block[row[hit], N // 2 - dl]
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
    rel_err = max(eig_ratio, path_rel * (tol / _PATH_TOL))
    return CheckReport(
        name, min_eig, 0.0, max(0.0, -min_eig), rel_err, tol, info, gate=path_rel <= _PATH_TOL
    )


def gram_psd_check(
    u: SampledSignal,
    probes: ProbeSet,
    n_doppler: int | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Positive definiteness of the self-ambiguity surface on the group.

    Route (a) builds the exact Gram of Heisenberg-shifted copies; route (b)
    reads the same quadratic form off the self surface through the group
    product.  Asserts the routes agree to _PATH_TOL of the energy and the
    Hermitian part of (a) has no eigenvalue below -tol times the largest.
    """
    G_a, G_b = _dual_gram([u], n_doppler, probes)
    return _psd_report("psd", G_a, G_b, probes, u.energy(), tol)


def trace_psd_check(
    waveforms: list[SampledSignal],
    probes: ProbeSet,
    gamma: float,
    n_doppler: int | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Positive definiteness of the spatially integrated (trace) surface of
    the array of waveforms at spacing gamma.

    The trace surface is looked up on route (b); route (a) sums the
    per-waveform exact Grams, which the additivity of the quadratic form
    makes the matching reference.
    """
    _trace_pairs(waveforms, gamma)
    G_a, G_b = _dual_gram(waveforms, n_doppler, probes)
    energy_scale = sum(w.energy() for w in waveforms)
    return _psd_report("trace-psd", G_a, G_b, probes, energy_scale, tol)


def _unimodular_fit(u: SampledSignal, v: SampledSignal) -> tuple[complex, float, float]:
    """The least-squares scalar lambda = <u,v>/energy(v) with u ~ lambda v,
    the residual |u - lambda v| / |u|, and the unimodular defect ||lambda| - 1|.
    A zero u or v has no such scalar, and an energy past the float range
    makes it nan: either raises InvalidParameterError."""
    eu, ev = u.energy(), v.energy()
    for name, e in (("u", eu), ("v", ev)):
        if not 0.0 < e < math.inf:
            raise InvalidParameterError(f"{name} needs a finite nonzero energy, got {e}")
    lam = inner_product(u, v) / ev
    diff = u.samples - lam * v.samples
    residual = math.sqrt(float(u.dt * np.sum(np.abs(diff) ** 2))) / math.sqrt(eu)
    return lam, residual, abs(abs(lam) - 1.0)


def recover_scalar(
    u: SampledSignal,
    v: SampledSignal,
    n_doppler: int | None = None,
    tol: float = _FIT_TOL,
) -> CheckReport:
    """Uniqueness up to a unimodular scalar.

    When the two self-ambiguity surfaces coincide (L2 distance <= _AF_TOL),
    the estimate lambda = <u,v>/energy(v) must be unimodular and reproduce
    u as lambda * v.  When the surfaces differ, the hypothesis is void: the
    report passes vacuously and records the non-equal status in info.
    Either way info["lambda"] holds the estimate.  A u or v of zero or
    non-finite energy raises InvalidParameterError before any surface is
    built.
    """
    lam, residual, unimodular_defect = _unimodular_fit(u, v)
    su, sv = _stream([(u, u)], n_doppler), _stream([(v, v)], n_doppler)
    diff_rows = (_squared_rows(np.subtract(x, y, out=x)) for x, y in _lockstep(su, sv))
    af_dist = math.sqrt(_integral(su, diff_rows).real)
    info: dict = {"af_distance": af_dist, "lambda": lam}
    if af_dist <= _AF_TOL:
        rel_err = max(residual, unimodular_defect)
        info.update({"af_equal": True, "residual": residual})
        return CheckReport("uniqueness", abs(lam), 1.0, rel_err, rel_err, tol, info)
    info.update({"af_equal": False, "status": "surfaces differ; hypothesis void"})
    return CheckReport("uniqueness", abs(lam), 1.0, 0.0, 0.0, tol, info)


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
    if not (0.0 < e2 < math.inf and 0.0 < e3 < math.inf):
        raise InvalidParameterError("collinearity needs inputs of finite nonzero energy")
    ip = inner_product(u2, u3)
    cs_ratio = abs(ip) / (u2.norm() * u3.norm())
    defect = max(0.0, 1.0 - cs_ratio)
    info: dict = {"cs_ratio": cs_ratio, "inner": ip}
    if defect <= tol:
        alpha = ip / e3  # u2 = alpha * u3
        info["alpha"] = alpha
        unit = u2.replace_samples(u2.samples / u2.norm())
        # one waveform given twice is built once
        s2 = _stream([(u2, u2)], n_doppler)
        s3 = s2 if u3 is u2 else _stream([(u3, u3)], n_doppler)
        target = _stream([(unit, unit)], n_doppler)
        sum_gap = _max_gap(
            (np.add(x, y, out=x), np.multiply(e2 + e3, t, out=t))
            for x, y, t in _lockstep(s2, s3, target)
        )
        info["sum_gap"] = sum_gap
        rel_err = max(defect, sum_gap * (tol / _SUM_TOL))
        return CheckReport(
            "collinearity", cs_ratio, 1.0, defect, rel_err, tol, info, gate=sum_gap <= _SUM_TOL
        )
    # not collinear: rel_err = defect > tol fails the report
    return CheckReport("collinearity", cs_ratio, 1.0, defect, defect, tol, info)


def trace_reduction_check(
    waveforms: list[SampledSignal],
    gamma: float,
    n_doppler: int | None = None,
    tol: float = 1e-8,
) -> CheckReport:
    """Trace-surface collapse for unimodular-collinear waveform sets.

    If every pair is a unimodular multiple, decided on the waveforms as
    recover_scalar decides it (residual of the least-squares scalar and
    ||lambda| - 1| both within recover_scalar's default 1e-6), the spatially
    integrated trace must equal M times the first waveform's self surface,
    to tol of its peak.  Otherwise the hypothesis is void: the report passes
    vacuously and lists the pairs that are not unimodular multiples as
    info["failing_pairs"].

    No pairwise surface is built.  recover_scalar also asks that the self
    surfaces lie within _AF_TOL of each other; a pair within the residual
    test but not that gate would pass recover_scalar vacuously, and here its
    set is tested for the reduction instead.  A waveform of zero or
    non-finite energy raises InvalidParameterError before any fit or surface.
    """
    pairs = _trace_pairs(waveforms, gamma)  # the array and its spacing, before any fit
    if not all(0.0 < w.energy() < math.inf for w in waveforms):
        # a zero set would pass as reduced, its gap taken against a zero
        # peak, and an overflowing one as void, its fits nan
        raise InvalidParameterError("trace-reduction needs waveforms of finite nonzero energy")
    m = len(waveforms)
    pair_status: dict[tuple[int, int], bool] = {}
    for i, j in itertools.combinations(range(m), 2):
        _, residual, unimodular_defect = _unimodular_fit(waveforms[i], waveforms[j])
        pair_status[(i, j)] = max(residual, unimodular_defect) <= _FIT_TOL
    failing = [pair for pair, ok in pair_status.items() if not ok]
    if not failing:
        trace = _stream(pairs, n_doppler)  # the spatial integral's trace
        target = _stream([(waveforms[0], waveforms[0])], n_doppler)
        gap = _max_gap((x, np.multiply(m, t, out=t)) for x, t in _lockstep(trace, target))
        info = {"reduced": True, "gap": gap}
        return CheckReport("trace-reduction", gap, 0.0, gap, gap, tol, info)
    # the hypothesis is void: a vacuous pass whose witnesses are the pairs
    # that are not unimodular multiples
    info = {"reduced": False, "failing_pairs": failing, "pair_status": pair_status}
    return CheckReport("trace-reduction", float(len(failing)), 0.0, 0.0, 0.0, tol, info)
