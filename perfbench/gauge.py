"""A fixed reference task, timed between the benchmark's ops.

The host this benchmark runs on is shared: how much work a CPU second does
changes by up to 1.8x over seconds to minutes, as other tenants load the
same cores and memory.  No clock removes that.  The gauge is a fixed task
of the same kinds of work the ops do (a complex FFT over a surface-sized
array, elementwise complex arithmetic, and float text formatting and
parsing), weighed per workload; the benchmark reads it between ops (for
longer ops, several times) and divides the ops' CPU time by the read, which
gives an op's cost in seconds of the reference machine.  The gauge is the
benchmark's own code and never changes with the program.
"""

from __future__ import annotations

import time

import numpy as np

# each part's CPU time on the reference machine, typical of a shared 2-core
# Xeon guest (where the host's load moves them by up to 1.8x)
REF_S = {"fft": 0.0027, "mem": 0.0031, "text": 0.0027}
SHARE = 0.05  # gauge time per op, as a share of the op's CPU time
MAX_READS = 8


class Gauge:
    """Every array the gauge touches is allocated here, once, so its cost
    does not depend on the state the program leaves the allocator in.

    ``mix`` weighs the three parts (weights sum to 1): host load slows
    interpreted Python far more than FFTs, and FFTs more than streaming
    memory, so a workload whose ops are nearly all one kind weighs that
    part up."""

    def __init__(self, mix: dict[str, float]) -> None:
        rng = np.random.default_rng(20070604)
        shape = (128, 1024)
        self.grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.prod = np.empty_like(self.grid)
        self.spec = np.empty_like(self.grid)
        self.mag = np.empty(shape)
        self.big = rng.standard_normal((32, 16384)) + 1j * rng.standard_normal((32, 16384))
        self.big_out = np.empty_like(self.big)
        self.big_copy = np.empty_like(self.big)
        self.floats = [float(x) for x in rng.standard_normal(1600)]
        parts = {"fft": self._fft, "mem": self._mem, "text": self._text}
        self.mix = [(parts[kind], w / REF_S[kind]) for kind, w in mix.items()]

    def _fft(self) -> None:
        # a lag product and its Doppler FFT, as cross_ambiguity forms them
        np.conjugate(self.grid[::-1], out=self.prod)
        np.multiply(self.grid, self.prod, out=self.prod)
        np.fft.fft(self.prod, axis=1, out=self.spec)
        np.abs(self.spec, out=self.mag)

    def _mem(self) -> None:
        # 8 MiB streamed through an elementwise pass and a copy
        np.multiply(self.big, 1j, out=self.big_out)
        np.copyto(self.big_copy, self.big_out)

    def _text(self) -> None:
        # float text out and back, as the CSV and SIG1 codecs do
        row = ",".join(repr(x) for x in self.floats)
        self.total = sum(float(tok) for tok in row.split(","))

    def __call__(self) -> float:
        """One read: how many times slower than the reference machine this
        one runs the workload's mix now (process CPU time)."""
        slow = 0.0
        for part, scale in self.mix:
            c0 = time.process_time()
            part()
            slow += (time.process_time() - c0) * scale
        return slow

    def batch(self, op_cpu_s: float) -> list[float]:
        """Reads taking about SHARE of ``op_cpu_s`` (at least one)."""
        c0 = time.process_time()
        reads = [self()]
        while (time.process_time() - c0 < SHARE * op_cpu_s
               and len(reads) < MAX_READS):
            reads.append(self())
        return reads
