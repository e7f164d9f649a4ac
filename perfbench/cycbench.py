"""Seeded microbenchmark of CycNum add, mul and inverse per conductor.

Operands are random elements of Q(zeta_m) with small rational coordinates,
built through the public constructor.  Each operation runs over the same
batch of operand pairs several times; the reported cost is the median
per-operation time over those repeats, in microseconds.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

CONDUCTORS = (1, 4, 12, 20)
OPS = ("add", "mul", "inverse")


def _random_element(rng: random.Random, m: int):
    from siegeleis.cyclotomic import CycNum, euler_phi

    while True:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(euler_phi(m))]
        x = CycNum(m, coeffs)
        # a value that collapses to a smaller conductor would time the
        # wrong field
        if x.m == m and not x.is_zero():
            return x


def _time_per_op(fn, pairs, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        samples.append((time.perf_counter() - t0) / len(pairs))
    return statistics.median(samples) * 1e6


def run(seed: int, batch: int = 200, repeats: int = 7) -> dict[str, float]:
    """Per-op microseconds keyed `cyclotomic.<op>_us.m<conductor>`."""
    rng = random.Random(seed)
    fns = {
        "add": lambda a, b: a + b,
        "mul": lambda a, b: a * b,
        "inverse": lambda a, b: a.inverse(),
    }
    out = {}
    for m in CONDUCTORS:
        pairs = [(_random_element(rng, m), _random_element(rng, m))
                 for _ in range(batch)]
        for op in OPS:
            # inverses are ~50x dearer than adds; fewer of them keep the
            # microbenchmark within a second per conductor
            n = batch if op != "inverse" or m == 1 else batch // 10
            out[f"cyclotomic.{op}_us.m{m}"] = _time_per_op(
                fns[op], pairs[:n], repeats)
    return out
