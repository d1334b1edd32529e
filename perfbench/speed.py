"""Machine speed, measured with a fixed reference kernel around each operation.

The machine the benchmark was built on is shared: its effective speed
changes by up to half, in phases that last from about a second to
minutes, while one run lasts seconds. Operation CPU times are therefore
rescaled to a nominal speed, ``cpu_s * NOMINAL_S / kernel_s``, where
``kernel_s`` is the mean CPU time of ``kernel`` just before and just
after the operation. The kernel does a fixed amount of the kinds of work
permslab does: 17-digit text records, small complex numpy arrays and a
tall-matrix SVD. It never calls permslab, so no change to permslab can
move it.
"""

import gc
import math
import time

import numpy as np

NOMINAL_S = 2e-3  # kernel CPU time at nominal speed, near its time where the bounds were set

_VALUES = np.random.default_rng(0).standard_normal(400) * 1e-3
_MATRIX = np.random.default_rng(1).standard_normal((84, 3))
_STEPS = np.arange(40)


def kernel() -> float:
    text = "\n".join(f"{i} {v:.17g} {-v:.17g}" for i, v in enumerate(_VALUES))
    acc = sum(float(line.split()[1]) for line in text.splitlines())
    for _ in range(60):
        z = 0.3 * np.exp(1j * (0.4 - 0.2 * _STEPS))
        packed = np.empty(2 * _STEPS.size)
        packed[0::2] = z.real
        packed[1::2] = z.imag
        acc += float(np.linalg.norm(packed)) + math.hypot(1.5, 0.2)
    return acc + float(np.linalg.svd(_MATRIX, compute_uv=False)[0])


class Speed:
    """Kernel CPU times, one sample between each two timed stretches."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(3):  # first calls pay numpy's dispatch set-up
            kernel()
        self.sample()

    def sample(self) -> float:
        gc.disable()  # a collection would time the heap, not the machine
        try:
            c0 = time.process_time()
            kernel()
            spent = time.process_time() - c0
        finally:
            gc.enable()
        self.samples.append(spent)
        return spent

    def nominal(self, cpu_s: float) -> float:
        """``cpu_s``, spent since the latest sample, rescaled to nominal speed.

        Takes the sample after it, which also serves as the sample before
        the next stretch.
        """
        before = self.samples[-1]
        return cpu_s * NOMINAL_S / ((before + self.sample()) / 2)
