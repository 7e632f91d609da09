"""Probe of the host's current speed, used to scale the benchmark's times.

On a shared virtual machine the speed of a single busy core drifts by
15-35% over tens of seconds while the guest sees no steal time: a process's
CPU time grows as fast as its wall time, so neither clock separates the
program from its neighbours. ``probe_ms`` times a fixed loop of interpreter
and small-array numpy work, the same kinds of work an allocation does, that
never touches the package. Dividing ``REF_MS`` by the probe time gives the
host's speed relative to a quiet host; a time measured next to the probe on
the same single busy core is multiplied by that factor. Nothing here
depends on the program, so a program that gets faster still shows as
faster.
"""

from __future__ import annotations

import statistics
import time

# probe_ms on a quiet 2-core Intel Xeon (KVM guest, Python 3.11, numpy
# with scipy-openblas). A fixed constant: changing it rescales every scaled
# metric, so it must never change along with the program.
REF_MS = 12.0
ROUNDS = 1200
WINDOW = 2                # probes on each side in a drop's scale

_arrays = None


def probe_ms() -> float:
    """CPU ms of this thread in the fixed probe loop."""
    global _arrays
    if _arrays is None:
        import numpy as np
        rng = np.random.default_rng(0)
        _arrays = np, rng.random((15, 64)), rng.random(64)
    np, a, b = _arrays
    t0 = time.thread_time()
    acc = 0.0
    for k in range(ROUNDS):
        row = np.log2(1.0 + a[k % 15] * b)
        j = int(np.argmax(row))
        acc += float(row[j]) + float(np.minimum(a[:, j], 0.5).sum())
        for i in range(40):
            acc += (i * k) % 7
    return 1e3 * (time.thread_time() - t0)


def scale(probes) -> float:
    """Factor that turns a time taken next to ``probes`` into quiet-host
    time: REF_MS over their median."""
    return REF_MS / statistics.median(probes)


def rolling_scales(probes: list, half: int = WINDOW) -> list:
    """Scale of each of a run of probes, from the median of it and up to
    ``half`` neighbours on each side, so that one disturbed probe does not
    set a drop's scale alone."""
    return [scale(probes[max(0, i - half):i + half + 1])
            for i in range(len(probes))]
