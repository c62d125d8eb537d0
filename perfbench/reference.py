"""A fixed reference loop, timed between the benchmark's units.

The machine the benchmark was tuned on is shared: other tenants slow its
cores by up to ~1.8x, in stretches from seconds to minutes, so a run's
wall-clock times depend as much on when it ran as on the code.  The loop
below does the same kind of work segtool does — small float32 recurrent
steps, a log-sum-exp over tag scores, dict counting over words and a
JSON round trip — and never changes, so its time tracks the machine's
speed over the run.  The end-to-end metrics are scaled by
``NOMINAL_S / run median`` of this loop: on a machine where the loop
takes ``NOMINAL_S``, they are plain wall-clock values.
"""

import json
import time

import numpy as np

NOMINAL_S = 0.003  # the loop's usual time on the 2-vCPU machine this was tuned on
EVERY_S = 0.1  # time one loop at most this often, between units


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((32, 32)).astype(np.float32) * 0.2
        self.u = rng.standard_normal((32, 32)).astype(np.float32) * 0.2
        self.x = rng.standard_normal((120, 32)).astype(np.float32)
        self.trans = rng.standard_normal((13, 13))
        self.words = [f"w{i % 97}" for i in range(800)]
        self.samples = []  # (seconds, seconds of the run it stands for)
        self.mark = time.perf_counter()

    def _loop(self):
        h = np.zeros(32, np.float32)
        for x in self.x:
            h = np.tanh(self.w @ x + self.u @ h)
            a = self.trans + h[:13, None]
            top = a.max(axis=0)
            np.log(np.exp(a - top).sum(axis=0)) + top
        counts = {}
        for w in self.words:
            counts[w] = counts.get(w, 0) + 1
        json.loads(json.dumps(counts))

    def sample(self, force=False):
        """Time the loop once if EVERY_S has passed since the last time;
        the sample stands for the run time since then."""
        now = time.perf_counter()
        if not force and now - self.mark < EVERY_S:
            return
        self._loop()
        self.samples.append((time.perf_counter() - now, now - self.mark))
        self.mark = time.perf_counter()

    def median_s(self):
        """Median loop time, each sample weighted by the run time it stands for."""
        ordered = sorted(self.samples)
        half, acc = sum(w for _, w in ordered) / 2, 0.0
        for seconds, weight in ordered:
            acc += weight
            if acc >= half:
                return seconds
        raise ValueError("no reference samples")

    def speed(self):
        """How much faster than nominal the machine ran: > 1 is faster."""
        return NOMINAL_S / self.median_s()
