"""A fixed numpy workload that measures the host's speed during a run.

The sandbox this benchmark was built on runs at a speed that drifts by up
to a quarter over minutes, most likely because other tenants share its
cores. A run
therefore times this reference between its unit ops and scales its times
by (nominal reference time / measured reference time): they read as times
on a host of the nominal speed, and the drift cancels. The reference is
the benchmark's own code, a small stack of 3x3 convolutions written as a
tap loop over numpy matmuls, so a change to efld never changes it.
"""

from __future__ import annotations

import time

import numpy as np

# (input size, in channels, out channels, stride): the shapes of eosa1 and eosa2.
LAYERS = ((128, 3, 8, 2), (64, 8, 8, 1), (64, 8, 8, 2), (32, 8, 16, 1))
# Seconds of one reference run at the nominal speed, by batch size: about the
# median on the 2-core Intel Xeon VM this benchmark was built on (numpy 2.4.6,
# one BLAS thread) in its quieter minutes.
NOMINAL_S = {1: 0.0015, 8: 0.013}


class Reference:
    """Fixed inputs and weights for one batch size; ``run`` times one pass
    and appends its seconds to ``times``."""

    def __init__(self, batch: int):
        rng = np.random.default_rng(20240714)
        self.batch = batch
        self.layers = [
            (rng.random((batch, size, size, cin), dtype=np.float32),
             rng.random((3, 3, cin, cout), dtype=np.float32) - 0.5, stride)
            for size, cin, cout, stride in LAYERS
        ]
        self.times = []

    def run(self) -> None:
        t0 = time.perf_counter()
        for x, w, stride in self.layers:
            size = x.shape[1]
            out_size = size // stride
            padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
            out = np.zeros((self.batch * out_size * out_size, w.shape[3]), dtype=np.float32)
            for i in range(3):
                for j in range(3):
                    window = padded[:, i : i + size : stride, j : j + size : stride, :]
                    out += window.reshape(-1, w.shape[2]) @ w[i, j]
            np.maximum(out, 0.0, out=out)
        self.times.append(time.perf_counter() - t0)

    def slowdown(self, times) -> float:
        """Median of ``times`` over the nominal time: above 1 on a slower host."""
        return float(np.median(times)) / NOMINAL_S[self.batch]
