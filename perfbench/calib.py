"""Host-speed probe: fixed work, independent of platelab, timed in a
background thread while the CLI commands run.

On a shared host each vCPU flips, within a second, between full speed and
about half speed, and the share of slow time drifts over minutes, so the
same work can take 1.5x longer from one minute to the next.  The probe
times two short kernels every ``INTERVAL_S`` seconds on the vCPU the
measured command last ran on.  The mean kernel time over a stretch of time,
divided by ``REF_KERNEL_S``, is how much slower that vCPU ran then than at
full speed (``slowdown``); dividing a time measured then by it gives the
time at full speed.

Each call is timed by the probe thread's CPU time, so waiting for the vCPU
does not count.  Each kernel stands for one kind of work the workloads do:
a pure-Python grid sweep (the eikonal solver) and sparse triangular solves
(the spectral layer).  They take up to about a tenth of the followed
vCPU's time.
"""
from __future__ import annotations

import math
import os
import threading
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

INTERVAL_S = 0.02
# Thread CPU time of each kernel at full speed on the 2-vCPU host the
# benchmark was defined on (the fastest tenth of its calls).
REF_KERNEL_S = {"python": 0.00075, "sparse": 0.0006}
GRID_N = 16        # python kernel: fast-sweeping passes of an N x N grid
LAPLACE_N = 30     # sparse kernel: 5-point Laplacian on an N x N grid
SOLVES = 8


def python_kernel(n=GRID_N):
    """Four fast-sweeping passes of an eikonal update on an n x n grid."""
    big = 1e30
    d = [[big] * n for _ in range(n)]
    d[n // 2][n // 2] = 0.0
    h = 1.0 / n
    orders = [(range(n), range(n)), (range(n - 1, -1, -1), range(n)),
              (range(n - 1, -1, -1), range(n - 1, -1, -1)),
              (range(n), range(n - 1, -1, -1))]
    for rows, cols in orders:
        for i in rows:
            for j in cols:
                a = min(d[i - 1][j] if i > 0 else big,
                        d[i + 1][j] if i < n - 1 else big)
                b = min(d[i][j - 1] if j > 0 else big,
                        d[i][j + 1] if j < n - 1 else big)
                if a >= big and b >= big:
                    continue
                if abs(a - b) >= h:
                    new = min(a, b) + h
                else:
                    new = 0.5 * (a + b + math.sqrt(2 * h * h - (a - b) ** 2))
                if new < d[i][j]:
                    d[i][j] = new
    return d[0][0]


def _laplacian(n):
    one = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return (sp.kron(one, eye) + sp.kron(eye, one)).tocsc()


_LU = sla.splu(_laplacian(LAPLACE_N))
_RHS = np.ones(LAPLACE_N * LAPLACE_N)


def sparse_kernel():
    """``SOLVES`` triangular solves with the LU factors of a 2-D Laplacian."""
    x = _RHS
    for _ in range(SOLVES):
        x = _LU.solve(_RHS)
    return x


KERNELS = {"python": python_kernel, "sparse": sparse_kernel}


def _running_cpus(pid):
    """Sorted CPUs that the running threads of process ``pid`` last ran on
    (the main thread's when none is running); empty once it is gone."""
    cpus, main = set(), []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return []
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat", encoding="utf-8") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            cpu = int(fields[36])       # field 39, "processor"
        except (OSError, IndexError, ValueError):
            continue
        if fields[0] == "R":            # field 3, state
            cpus.add(cpu)
        if tid == str(pid):
            main = [cpu]
    return sorted(cpus) or main


class Probe:
    """Times the kernels in turn in a daemon thread until ``stop()``.

    While ``follow(pid)`` names a process, each round first moves the probe
    thread onto a CPU where a running thread of that process last ran,
    taking those CPUs in turn, so the kernels see the speed of the vCPUs
    the measured command runs on.  ``samples[name]`` lists
    ``(start, seconds)`` per kernel call."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = {name: [] for name in KERNELS}
        self.pid = None
        self._cpus = os.sched_getaffinity(0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def follow(self, pid):
        self.pid = pid

    def _loop(self):
        turn = 0
        while not self._stop.is_set():
            cpus = [] if self.pid is None else _running_cpus(self.pid)
            turn += 1
            # pid 0 is this thread alone
            os.sched_setaffinity(
                0, {cpus[turn % len(cpus)]} if cpus else self._cpus)
            for name, kernel in KERNELS.items():
                start, used = time.perf_counter(), time.thread_time()
                kernel()
                # thread CPU time leaves out any wait for the vCPU
                self.samples[name].append((start, time.thread_time() - used))
            self._stop.wait(self.interval)

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def mean(self, name, start=-math.inf, end=math.inf):
        """Mean kernel time of the calls that started in [start, end)."""
        times = [s for t, s in self.samples[name] if start <= t < end]
        return sum(times) / len(times) if times else math.nan

    def slowdown(self, start=-math.inf, end=math.inf):
        """How many times slower than ``REF_KERNEL_S`` the kernels ran in
        [start, end): the geometric mean over kernels of mean / reference.
        Over the whole probe when no call started in the interval."""
        logs = [math.log(self.mean(name, start, end) / ref)
                for name, ref in REF_KERNEL_S.items()]
        if any(math.isnan(x) for x in logs):
            if math.isinf(start):
                return math.nan
            return self.slowdown()
        return math.exp(sum(logs) / len(logs))
