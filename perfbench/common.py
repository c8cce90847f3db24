"""Small helpers for the benchmark's child process and its self-test."""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import time


class Deadline(Exception):
    """A timed operation ran past its deadline."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`Deadline` in the main thread if the block runs longer
    than ``seconds`` (interval timer + SIGALRM, so a call blocked in a
    wait loop is interrupted too)."""
    def on_alarm(signum, frame):
        raise Deadline(f"deadline of {seconds:.0f} s exceeded")

    prev = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, prev)


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, p: float) -> float:
    s = sorted(xs)
    return float(s[min(len(s) - 1, int(len(s) * p / 100))])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# A shared machine runs the same code up to 40 % slower for minutes at
# a time while its neighbours load the shared cores (the process keeps
# the CPU: its wall and CPU time grow together).  The host reference is
# a fixed piece of work that calls no alix_ray code, timed in the
# benchmark process between the slices of a query phase; the phase's
# figure is scaled by how much slower than REF_NOMINAL_S the reference
# ran.  REF_NOMINAL_S (seconds per part) is a constant of the
# benchmark: changing it rescales every scaled figure.
REF_NOMINAL_S = {"python": 0.025, "numpy": 0.01, "arrow": 0.015}


class HostReference:
    """Timings of the reference work, in three parts: interpreted Python
    (dict, string and integer operations), numpy (sorts) and pyarrow
    string kernels."""

    def __init__(self):
        import numpy as np
        import pyarrow as pa

        self._ints = np.random.default_rng(0).integers(0, 1 << 30, 600_000)
        self._strs = pa.array([f"mot{i % 7919} texte {i}" for i in range(60_000)])
        self.samples: dict[str, list[float]] = {k: [] for k in REF_NOMINAL_S}

    @staticmethod
    def _python() -> None:
        d: dict = {}
        for i in range(30_000):
            k = "k%d" % (i % 5000)
            d[k] = d.get(k, 0) + i
        sorted(" ".join(d).split())
        x = 0
        for i in range(150_000):
            x = (x * 31 + i) & 0xFFFF

    def _numpy(self) -> None:
        a = self._ints.copy()
        a.sort()
        a[::7].argsort()

    def _arrow(self) -> None:
        import pyarrow.compute as pc

        pc.value_counts(pc.split_pattern(pc.utf8_lower(self._strs), " ")
                        .flatten())

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            for part in self.samples:
                t0 = time.perf_counter()
                getattr(self, "_" + part)()
                self.samples[part].append(time.perf_counter() - t0)

    def mark(self) -> int:
        """Number of samples so far: a phase boundary for :meth:`slowdown`."""
        return len(self.samples["python"])

    def part_slowdowns(self, lo: int = 0, hi: int | None = None) -> dict:
        return {k: median(v[lo:hi]) / REF_NOMINAL_S[k]
                for k, v in self.samples.items()}

    def slowdown(self, lo: int = 0, hi: int | None = None) -> float:
        """How much slower than nominal the host ran while samples
        ``lo:hi`` were taken: the geometric mean over the parts of
        median time over nominal (1.2 = 20 % slower)."""
        parts = self.part_slowdowns(lo, hi).values()
        return float(math.prod(parts) ** (1.0 / len(parts)))


def load_avg() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def ram_mb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def nproc() -> str:
    """What ``nproc`` prints here (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip()


def box_record(ray_num_cpus: int) -> dict:
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "logical_cpus": os.cpu_count(),
        "ray_num_cpus": ray_num_cpus,
        "ram_mb": round(ram_mb(), 1),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
    }
