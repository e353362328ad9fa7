"""mimoaf benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload verify_all --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it reports the per-layer metrics (see perfbench/LAYERS.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, the tail percentile, the op mix
and the environment.  Exit code 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# The program is single-threaded (the Doppler FFT thread knob is refused
# below); BLAS is held to one thread too, before numpy loads, so an op's
# process CPU time is its whole cost and no thread waits on a busy core.
BLAS_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_ENV:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from gauge import Gauge  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_REPS = 3  # at least this many set-ups, and more while under SETUP_MIN_S
SETUP_MIN_S = 5.0
SETUP_MAX_REPS = 9
TAIL_BEYOND = 10
GAUGE_SPAN = 2


def _fail_start(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------- environment

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        for line in Path("/proc/self/mounts").read_text().splitlines():
            _dev, mnt, fstype, *_ = line.split()
            if str(path).startswith(mnt) and len(mnt) > len(best):
                best, kind = mnt, fstype
    except OSError:
        pass
    return kind


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except Exception:  # older numpy: no dict mode
        return "unknown"


def environment(out_dir: Path) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "out_dir": str(out_dir),
        "out_fs": _fs_type(out_dir),
    }


# ------------------------------------------------------------------- setup

def _import_program() -> dict:
    """Fresh import of mimoaf (its modules are dropped first)."""
    for name in [m for m in sys.modules if m == "mimoaf" or m.startswith("mimoaf.")]:
        del sys.modules[name]
    importlib.import_module("mimoaf")
    importlib.import_module("mimoaf.cli")
    return spans.load_modules()


def setup(name: str, out_dir: Path, seed: int, gauge: Gauge,
          reps: int, min_s: float):
    """Import, generate inputs and warm up (one unit), ``reps`` times and
    then again while under ``min_s`` of wall time (at most SETUP_MAX_REPS);
    returns the last workload and each set-up's CPU time over the mean of
    the gauge reads before it and before each warm-up op (the reads
    themselves are not counted)."""
    times, start = [], time.perf_counter()
    while len(times) < reps or (len(times) < SETUP_MAX_REPS
                                and time.perf_counter() - start < min_s):
        reads = gauge.batch(1.0)
        c0 = time.process_time()
        wl = WORKLOADS[name](_import_program(), out_dir, seed)
        for op in wl.unit(0):
            c1 = time.process_time()
            reads.append(gauge())
            c0 += time.process_time() - c1
            _, outcome = run_op(op)
            if outcome.errors:
                _fail_start(f"warm-up op {op.label} failed: {outcome.errors[0]}")
        times.append((time.process_time() - c0) / statistics.fmean(reads))
    return wl, times


# ------------------------------------------------------------------- ops

def run_op(op, rec=None, op_id: int = 0) -> tuple[tuple[float, float], Outcome]:
    """Run one op (timed: wall and process CPU seconds), then check its
    output (untimed)."""
    if rec is not None:
        rec.begin_op(op_id, op.label)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        payload, error = op.run(), None
    except (Exception, SystemExit) as exc:  # an op failure, counted below
        payload, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
    cost = (time.perf_counter() - t0, time.process_time() - c0)
    if rec is not None:
        rec.end_op()
    if error is not None:
        return cost, Outcome(errors=[error])
    try:
        return cost, op.check(payload)
    except (Exception, SystemExit) as exc:
        return cost, Outcome(errors=[f"{op.label}: check raised {type(exc).__name__}: {exc}"])


class Tally:
    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.gauges: list[list[float]] = []  # [i]: the reads before op i
        self.outcomes: list[Outcome] = []
        self.labels: dict[str, int] = {}

    def add(self, label: str, cost: tuple[float, float], outcome: Outcome) -> None:
        self.walls.append(cost[0])
        self.cpus.append(cost[1])
        self.outcomes.append(outcome)
        self.labels[label] = self.labels.get(label, 0) + 1
        for err in outcome.errors:
            print(f"FAIL {err}", file=sys.stderr)

    def extend(self, other: "Tally") -> None:
        self.walls += other.walls
        self.cpus += other.cpus
        self.outcomes += other.outcomes

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.errors)


def run_units(wl, units, tally: Tally, rec=None, gauge: Gauge | None = None) -> None:
    for u in units:
        for op in wl.unit(u):
            if gauge is not None:
                tally.gauges.append(gauge.batch(tally.cpus[-1] if tally.cpus else 0.0))
            cost, outcome = run_op(op, rec, len(tally.walls))
            tally.add(op.label, cost, outcome)


# ------------------------------------------------------------ the two runs

def scaled_costs(tally: Tally) -> list[float]:
    """Each op's CPU time over the mean of the gauge reads run around it:
    GAUGE_SPAN batches before it and GAUGE_SPAN after."""
    g = tally.gauges
    return [cpu / statistics.fmean(
                [x for batch in g[max(0, i + 1 - GAUGE_SPAN): i + 1 + GAUGE_SPAN] for x in batch])
            for i, cpu in enumerate(tally.cpus)]


def end_to_end(wl, seconds: float, setup_s: float, gauge: Gauge) -> tuple[Tally, dict, dict]:
    """Whole units until ``seconds`` have passed and ``min_units`` ran.

    The bounded metrics are op CPU seconds scaled by the gauge (gauge.py):
    on a shared host the wall clock also counts time the hypervisor gives
    to other guests and time other processes hold the core, and a CPU
    second does more or less work as neighbours load the machine; neither
    is the program's doing.  Raw CPU and wall figures go on the info line."""
    tally = Tally()
    start, u = time.perf_counter(), 0
    while time.perf_counter() - start < seconds or u < wl.min_units:
        run_units(wl, [u], tally, gauge=gauge)
        u += 1
    tally.gauges.append(gauge.batch(tally.cpus[-1]))
    all_reads = [x for batch in tally.gauges for x in batch]
    costs, walls = sorted(scaled_costs(tally)), sorted(tally.walls)
    cpus = sorted(tally.cpus)
    n = len(costs)
    tail_rank = max(n - 1 - TAIL_BEYOND, 0)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (n * statistics.fmean(all_reads) / sum(cpus), "1/s"),
        "latency_s.p50": (statistics.median(costs), "s"),
        "latency_s.tail": (statistics.fmean(costs[tail_rank:]), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (1.0 - tally.failed / n, "ratio"),
    }
    info = {"ops": n, "units": u, "tail_percentile": round(100.0 * tail_rank / n, 2),
            "ops_beyond_tail": n - 1 - tail_rank, "tail_op_s": costs[tail_rank],
            "fail_frac": tally.failed / n,
            "gauge_read.mean": statistics.fmean(all_reads), "gauge_reads": len(all_reads),
            "cpu": {"ops_per_s": n / sum(cpus), "latency_s.p50": statistics.median(cpus),
                    "latency_s.tail": statistics.fmean(cpus[tail_rank:])},
            "wall": {"ops_per_s": n / sum(walls), "latency_s.p50": statistics.median(walls),
                     "latency_s.tail": statistics.fmean(walls[tail_rank:])}}
    return tally, metrics, info


def per_layer(wl, seconds: float) -> tuple[Tally, dict, dict]:
    """Untraced whole cycles for about half the time, then the same cycles
    traced, then one unit under the tracemalloc probe."""
    baseline = Tally()
    budget, cycles, start = seconds / 2.0, 0, time.perf_counter()
    upc = wl.units_per_cycle
    while True:
        run_units(wl, range(cycles * upc, (cycles + 1) * upc), baseline)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > budget:
            break

    mods = spans.load_modules()
    rec = spans.SpanRecorder()
    undo = rec.install(mods)
    traced = Tally()
    try:
        run_units(wl, range(cycles * upc), traced, rec)
    finally:
        spans.restore(undo)

    probe = spans.PeakProbe()
    probed = Tally()
    undo = probe.install(mods)
    try:
        run_units(wl, [0], probed)
    finally:
        spans.restore(undo)

    n = len(traced.walls)
    folded = rec.fold(n)
    cross_cells = folded.get("ambiguity.cross_ambiguity.cells", 0.0) * n
    delivered = sum(o.cells for o in traced.outcomes)
    folded["ambiguity.cross_ambiguity.peak_mib"] = probe.peak_bytes / 2**20
    folded["ambiguity.cells_used_ratio"] = delivered / cross_cells if cross_cells else 0.0
    folded["cli.verify.checks"] = sum(o.checks for o in traced.outcomes) / n
    folded["cli.verify.checks_failed"] = sum(o.checks_failed for o in traced.outcomes) / n
    folded["trace.overhead"] = sum(traced.walls) / sum(baseline.walls) - 1.0
    metrics = {name: (folded.get(name, 0.0), unit) for name, unit in spans.per_layer_spec()}
    info = {"ops": n, "cycles": cycles, "untraced_op_s": sum(baseline.walls) / n,
            "op_mix": traced.labels}
    # every op run counts towards attempted and failed, traced or not
    traced.extend(baseline)
    traced.extend(probed)
    return traced, metrics, info


# -------------------------------------------------------------------- main

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if "MIMO_AMBIG_THREADS" in os.environ:
        _fail_start("MIMO_AMBIG_THREADS is set; unset it so every commit runs "
                    "the same single-threaded Doppler FFT")
    if not (ROOT / "src" / "mimoaf" / "__init__.py").is_file():
        _fail_start(f"no mimoaf sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    scratch = ROOT / ".perfbench_run"
    out_dir = scratch / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        gauge = Gauge(WORKLOADS[args.workload].gauge_mix)
        if args.trace:
            wl, setup_times = setup(args.workload, out_dir, args.seed, gauge, 1, 0.0)
            tally, metrics, info = per_layer(wl, args.seconds)
        else:
            wl, setup_times = setup(args.workload, out_dir, args.seed, gauge,
                                    SETUP_REPS, SETUP_MIN_S)
            tally, metrics, info = end_to_end(wl, args.seconds,
                                              statistics.median(setup_times), gauge)
        info["setup_reps_s"] = setup_times
        info.setdefault("op_mix", tally.labels)
        info["env"] = environment(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            scratch.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": len(tally.walls),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
