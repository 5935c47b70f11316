"""Host-speed reference: a fixed loop timed between steps to rescale wall times.

Shared 2-core virtual machines (Intel Xeon, 2 MiB L2) change speed by up
to 1.8x over seconds to minutes, as neighbouring tenants come and go; the
guest sees no steal time, and CPU time equals wall time. The loop mixes the
kinds of work the workloads spend their time on (interpreter work, small
NumPy kernels, scaling updates like Sinkhorn's, BLAS at width 256, streams
past L2), uses no gcnfuse code, and is timed after every set-up, fuse and
evaluation. A wall time t of a step is reported as t * REFERENCE_S / r,
where r is the mean of the reference times just before and just after the
step: seconds on a host where the loop takes REFERENCE_S. A change to
gcnfuse cannot move the loop, so its gains and losses show in full. Reports
print raw wall times too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The loop's time on a shared 2-core Xeon VM (2 MiB L2) in its fast state.
REFERENCE_S = 0.007

_RNG = np.random.default_rng(0)
_WEIGHT = _RNG.standard_normal((16, 16))
_KERNEL = np.exp(-np.abs(_RNG.standard_normal((16, 16))) / 0.5)
_SWEEP = np.ones(1 << 18)
_STREAM = np.ones(1 << 20)
_WIDE = np.ones((256, 256))
_BATCH = np.ones((256, 64))


def _mixed() -> float:
    rng = np.random.default_rng(0)
    acc = 0.0
    for i in range(30):
        rows = rng.standard_normal((7, 16))
        acc += float(np.maximum(rows @ _WEIGHT.T, 0.0).mean(axis=0)[0])
        acc += sum({k: k * 0.5 for k in range(24)}.values())
        if i % 10 == 0:
            acc += float((_SWEEP * 1.0001).sum())
    return acc


def _propagate() -> float:
    acc = 0.0
    h = np.ones((7, 16))
    for _ in range(100):
        adj = np.zeros((7, 7))
        for u in range(6):
            adj[u, u + 1] = 0.5
            adj[u + 1, u] = 0.5
        acc += float(np.maximum((adj @ h) @ _WEIGHT.T + 0.1, 0.0).mean(axis=0)[0])
    return acc


def _scaling() -> float:
    a = np.ones(16) / 16
    u = v = np.ones(16)
    f = np.zeros(16)
    for _ in range(80):
        u = (a / (_KERNEL @ v + 1e-16)) ** 0.9 * np.exp(-f / 1.5)
        v = (a / (_KERNEL.T @ u + 1e-16)) ** 0.9
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            break
    return float(u.sum())


def _memory() -> float:
    # the wide workload's kind of work: BLAS at width 256, streams past L2
    return float((_STREAM * 1.0001).sum()) + float((_WIDE @ _BATCH)[0, 0])


def _interpreter() -> int:
    acc = 0
    for i in range(5000):
        pair = (i, i + 1)
        acc += pair[0] * 3 % 7
        if i % 3 == 0:
            acc += len([k for k in range(5)])
    return acc


def reference_time() -> float:
    """Wall time of one pass of the reference loop, in seconds."""
    start = time.perf_counter()
    _mixed()
    _propagate()
    _scaling()
    _interpreter()
    _memory()
    return time.perf_counter() - start


class Rescaler:
    """Times the reference loop after each step of a run.

    Calling it after a step returns REFERENCE_S over the mean of the
    reference times just before and just after that step: the factor that
    turns the step's wall time into reference-host seconds.
    """

    def __init__(self):
        reference_time()  # the first pass pays for first-touch page faults
        self.references = [reference_time()]

    def __call__(self) -> float:
        self.references.append(reference_time())
        return REFERENCE_S / statistics.fmean(self.references[-2:])
