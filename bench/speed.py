"""Machine-speed probe sampled on the measuring thread itself.

The host this benchmark was built on changes speed by up to 1.8x within
seconds and by 1.5x over minutes, as other tenants come and go, and a
probe timed before and after a round does not see what happened during
it. SpeedProbe therefore interrupts the process every PERIOD_S seconds
(SIGALRM) and times a small fixed kernel in the signal handler, on the
same thread and at the same moments as the measured code. A time T
measured while the probe ran is reported as

    T * REFERENCE_S[kernel] / (mean kernel time)

that is, in seconds at the speed at which one kernel call takes
REFERENCE_S[kernel]. Contention slows scalar Python code and short numpy calls
by different factors, so the kernel follows the measured code: "numpy"
is the central-difference stencil of an explicit step on a 401-node grid
(for code that is nearly all time stepping), "python" scalar float
arithmetic in the shape of an RK4 shooting step (for set-up, before numpy
is imported), and "mixed" half of each (for code that mixes the two).
The probe costs about 1 % of the measured time, on every commit alike.
"""

import signal
import time

PERIOD_S = 0.02
# kernel times that define the reference speed: about the kernels' median
# times inside the workloads on the 2-core machine the benchmark was built
# on (cache misses make them slower there than in a tight loop), so that
# reported times read like that machine's typical seconds
REFERENCE_S = {"python": 3.2e-4, "numpy": 2.6e-4, "mixed": 3.8e-4}


def _python_kernel(steps=1000):
    # scalar float arithmetic in the shape of one RK4 shooting step
    y1, y2, h = 1.3, 0.1, 1e-4
    for _ in range(steps):
        k1a = 2.0 * y2 * y1 ** 0.5
        k1b = y1 - 1.0
        a = y1 + 0.5 * h * k1a
        if a < 0.0 or a > 1e6:
            break
        y1 += h * k1a
        y2 += h * k1b


def _numpy_kernel_factory(reps=12):
    import numpy as np
    n = np.linspace(0.5, 1.5, 401)
    J = 0.1 * n

    def kernel():
        # the central-difference stencil of one explicit step
        for _ in range(reps):
            f = J * J / n + 0.5 * n ** 2.0
            d = 0.5 * (f[2:] - f[:-2])
            lap = n[2:] - 2.0 * n[1:-1] + n[:-2]
            float(np.max(np.abs(d + lap)))
    return kernel


def _mixed_kernel_factory():
    stencil = _numpy_kernel_factory(reps=6)

    def kernel():
        _python_kernel(steps=500)
        stencil()
    return kernel


KERNELS = {
    "python": lambda: _python_kernel,
    "numpy": _numpy_kernel_factory,
    "mixed": _mixed_kernel_factory,
}


class SpeedProbe:
    """Times the kernel every PERIOD_S seconds between start() and stop()."""

    def __init__(self, kernel: str = "python"):
        self._kernel = KERNELS[kernel]()
        self._reference = REFERENCE_S[kernel]
        self.total = 0.0
        self.count = 0
        self._busy = False
        self._previous = None

    def _sample(self):
        t0 = time.perf_counter()
        self._kernel()
        self.total += time.perf_counter() - t0
        self.count += 1

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def start(self) -> "SpeedProbe":
        self.total, self.count = 0.0, 0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> float:
        """Stop sampling; return the factor REFERENCE_S[kernel] / mean kernel time."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self._reference * self.count / self.total
