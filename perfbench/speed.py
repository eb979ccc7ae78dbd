"""Host speed probe.

On a shared host the processor's speed drifts: a fixed pure-Python loop
took from 88 ms to 162 ms (medians of 4-second spans) within two minutes on
the 2-CPU virtual machine the reference figures come from, while the
process was never descheduled.  Interpreted exact arithmetic slows most
under that drift, so the raw round times of the exact workloads spread by
up to 0.40 of their median from run to run.  Those workloads time a fixed
exact-arithmetic kernel, written here and sharing no code with contractlab,
between their rounds, and report their round time scaled to the speed at
which the kernel takes KERNEL_SECONDS; set-up times are scaled the same way
by probes timed between the set-up processes.  A change to contractlab
moves the rounds and not the kernel, so the scaled time moves with the
program and not with the host.

The numpy-bound workloads are not scaled: their slowdown follows neither
this kernel nor numpy kernels written to match them (a long-grid vector
kernel for the quadrature, a small-matrix kernel for Frank-Wolfe), and
their raw times spread less than their scaled ones (see README.md).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the kernel's time on the reference machine while the host runs fast.
KERNEL_SECONDS = 0.03
SCALED_WORKLOADS = frozenset({"ptas_exact", "hardness_verify"})
# Probing time after a round, as a share of the round's time.
PROBE_SHARE = 0.15
MIN_SAMPLES = 2


def kernel() -> None:
    """Small-denominator Fraction sums and products, like the exact LP and
    best-response layers."""
    total = Fraction(0)
    for i in range(1, 6_000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 7 + 1, 3)


def probe(seconds: float) -> list[float]:
    """Times of kernel runs, at least MIN_SAMPLES and until they add up to
    `seconds`."""
    times: list[float] = []
    while len(times) < MIN_SAMPLES or sum(times) < seconds:
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(probes: list[float]) -> float:
    """Factor that turns seconds measured alongside `probes` into seconds at
    reference speed."""
    return KERNEL_SECONDS / statistics.median(probes)
