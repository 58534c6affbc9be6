"""Machine-speed calibration: times reported in reference seconds.

On a shared machine the same work can take twice as long a minute later,
because other tenants load the same cores. On the 2-core machine this
benchmark was defined on, one ODE item's wall time varied 2.3x over
160 seconds; over 20-second windows its quartile spread was 0.74 of the
median. No bound a benchmark can use survives that.

So every measured piece of work is bracketed by a fixed calibration kernel:
a Python loop of small numpy calls followed by plain interpreter work
(building a dict of tuples), the same profile as curveflow's hot loops.
Either half alone tracked some workloads worse. The work's wall time is
scaled by ``REFERENCE_S`` divided by the mean kernel time before and after
it. That gives reference seconds: the time the work would take at the
machine speed where the kernel takes ``REFERENCE_S``. Measured the same way
over 150 seconds, with both halves of the kernel, the scaled ODE item time
varied 1.07x between 10-second windows, against 1.70x raw; its quartile
spread was 0.03, against 0.18 raw. Raw wall times stay in the record.

A kernel before and after does not see a speed change in the middle of work
that runs for seconds, such as one flow. So the clock also samples the kernel
during the work: an interval timer interrupts it every ``SAMPLE_S`` seconds
and times one kernel run. The machine speed over the work is the mean of
``1 / kernel time`` over the samples and the two brackets, and the kernels'
own run time is taken out of the work's wall time. On the 2-core machine,
over two minutes of repeated flows, the quartile spread of single flow items
was 0.27-0.40 raw and 0.04-0.07 scaled this way; in another two minutes,
scaled by the kernels before and after alone, it was 0.09-0.32.

Work done in a child process (the CLI calls, the set-up's import and
``cli.import_s``) is scaled by a kernel timed in that child as it starts,
every ``SAMPLE_S`` seconds while it runs, and as it exits. The parent's
kernel would not do: the child may run on the other CPU at another speed,
and on the 2-core machine scaling CLI calls by the parent's kernel doubled
their spread. Over 60 bare imports, sampling in the child cut the spread from
0.21 (start and exit kernels only) to 0.11.

``REFERENCE_S`` is part of the benchmark's definition. Changing it rescales
every scaled time.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 2.0e-3
_KERNEL_SAMPLES = 3
# a calibration this recent also serves as the next measurement's "before"
_FRESH_S = 0.05
# one kernel run (about 2 ms) every SAMPLE_S seconds of measured work
SAMPLE_S = 0.025


def _kernel() -> None:
    # small numpy calls, as in curveflow's flow step and ODE right-hand side
    x = np.linspace(0.0, 1.0, 128)
    for _ in range(200):
        y = np.hypot(x, x[::-1])
        x = np.concatenate([y[1:], y[:1]]) * 0.5
    # interpreter work: allocation, hashing, attribute and item access
    table = {}
    for i in range(2500):
        table[str(i)] = (i, i * i)
    sum(v[1] for v in table.values())


def kernel_seconds() -> float:
    """Median of three timings of the fixed kernel (about 2 ms each)."""
    times = []
    for _ in range(_KERNEL_SAMPLES):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# seconds spent in sampled kernels so far in this process
_sampled_s = 0.0


def work_clock() -> float:
    """``perf_counter`` without the time spent in sampled kernels."""
    while True:
        spent = _sampled_s
        now = time.perf_counter()
        if spent == _sampled_s:  # no sample ran in between
            return now - spent


class _Sampler:
    """Times one kernel run on every SIGALRM while active (main thread only)."""

    def __init__(self):
        self.during: list[float] = []
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        global _sampled_s
        t0 = time.perf_counter()
        _kernel()
        took = time.perf_counter() - t0
        self.during.append(took)
        _sampled_s += took

    def start(self) -> None:
        self.during = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _inverse_mean(kernels) -> float:
    """Mean machine speed, 1 / kernel time, over the kernel timings."""
    return statistics.fmean(1.0 / k for k in kernels)


# A child started with CHILD_PRELUDE times the kernel, samples it while it
# runs, and when it exits reports "<tag> <effective kernel s> <seconds spent
# on kernels>" on stderr. perfbench must be on the child's PYTHONPATH.
CHILD_TAG = "perfbench-kernel"
CHILD_PRELUDE = "import speed; speed.start_child(); "


def timed() -> tuple[float, float]:
    """(kernel seconds, wall seconds the calibration took)."""
    t0 = time.perf_counter()
    k = kernel_seconds()
    return k, time.perf_counter() - t0


def start_child() -> None:
    import atexit

    first = timed()
    sampler = _Sampler()
    sampler.start()
    atexit.register(report_from_child, first, sampler)


def report_from_child(start: tuple[float, float], sampler: _Sampler) -> None:
    sampler.stop()
    end = timed()
    effective = 1.0 / _inverse_mean([start[0], *sampler.during, end[0]])
    spent = start[1] + sum(sampler.during) + end[1]
    print(f"{CHILD_TAG} {effective!r} {spent!r}", file=sys.stderr)


def run_child(code: str, args, *, cwd, env) -> tuple[int, str, str, float, float]:
    """Run ``python -c CODE ARGS`` with the calibration prelude.

    Returns the exit code, stdout, stderr without the kernel report, and the
    wall time in raw and in reference seconds. The kernels' own run time is
    taken out of the wall time before scaling.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD_PRELUDE + code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    raw = time.perf_counter() - t0
    lines = proc.stderr.splitlines(keepends=True)
    report = [line for line in lines if line.startswith(CHILD_TAG + " ")]
    if not report:
        raise RuntimeError(f"child process did not report its calibration kernel: "
                           f"{proc.stderr[-200:]!r}")
    _tag, kernel, total = report[-1].split()
    stderr = "".join(line for line in lines if not line.startswith(CHILD_TAG + " "))
    ref = (raw - float(total)) * REFERENCE_S / float(kernel)
    return proc.returncode, proc.stdout, stderr, raw, ref


class SpeedClock:
    """Measures callables in raw and reference seconds.

    With ``sample`` the kernel is also timed every ``SAMPLE_S`` seconds
    during the work. Work that starts threads should be measured without it.
    Time inside the work is read with ``work_clock``, which leaves the
    samples out.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.kernels: list[float] = []
        self._last = (-1.0, 0.0)  # (when, kernel seconds)
        self._sampler = _Sampler()

    def _calibrate(self) -> float:
        k = kernel_seconds()
        self.kernels.append(k)
        self._last = (time.perf_counter(), k)
        return k

    def measure(self, fn):
        """Run ``fn()``; return (its result, raw seconds, reference seconds).

        Raw seconds exclude the kernels sampled during the work.
        """
        when, before = self._last
        if time.perf_counter() - when > _FRESH_S:
            before = self._calibrate()
        sampler = self._sampler
        sampler.during = []
        t0 = time.perf_counter()
        if self.sample:
            sampler.start()
            try:
                result = fn()
            finally:
                sampler.stop()
        else:
            result = fn()
        raw = time.perf_counter() - t0 - sum(sampler.during)
        after = self._calibrate()
        inverse = _inverse_mean([before, *sampler.during, after])
        return result, raw, raw * REFERENCE_S * inverse

    def factor(self) -> float | None:
        """REFERENCE_S over the median kernel time so far (None before any calibration)."""
        return REFERENCE_S / statistics.median(self.kernels) if self.kernels else None
