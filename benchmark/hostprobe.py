"""Host-speed probe: how much slower than a reference host a section ran.

On a machine shared with other tenants the same round of work can take
up to twice as long when the host is loaded, and the load changes
within seconds as well as over minutes, so medians of raw wall times
move between sets of runs of the same code. While a timed section runs,
the probe interrupts it every ``INTERVAL_S`` seconds (``SIGALRM`` from
``setitimer``, handled in the main thread between bytecodes) and runs
one unit of a fixed loop written here, never driftsched code. The units
sample the host's speed all through the section, on the thread doing
the section's work. Speed is inverse unit time, so the section's
slowdown is the harmonic mean of its unit times over
``reference_unit_s``, the unit time of the unloaded reference host (the
2-core x86-64 VM the README describes). The section's work time is its
wall time minus the time spent in the probe, and that divided by the
slowdown estimates the time the section would have taken on the
reference host.

Two kinds of unit: ``ArrayProbe`` runs soft value iteration on a 30x4
table, small-array numpy and scipy work like the workloads' rounds;
``PythonProbe`` runs a plain bytecode loop and imports nothing beyond
the standard library, so that a set-up process can start it before it
imports numpy and driftsched.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025  # seconds between probe units in a section
MIN_UNITS = 10      # a section too short for these many is topped up after it


class HostProbe:
    """Probe units run during one timed section at a time."""

    reference_unit_s: float  # a unit's time on the unloaded reference host

    def __init__(self):
        self._units = []
        self._spent = 0.0
        self._previous = None

    def _unit(self) -> float:
        """Run one unit; return its duration in seconds."""
        raise NotImplementedError

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._units.append(self._unit())
        self._spent += time.perf_counter() - start

    def start(self) -> None:
        """Begin a section: probe units run every INTERVAL_S until stop()."""
        self._units, self._spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        """End the section; return its probe record.

        ``spent_s`` is the time the section spent inside the probe, to be
        taken off its wall time; ``slowdown`` is its speed against the
        reference host.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        units, spent = self._units, self._spent
        inside = len(units)
        top_up = time.perf_counter()
        while len(units) < MIN_UNITS:
            units.append(self._unit())
        spent += time.perf_counter() - top_up
        return {
            "units": len(units), "units_inside": inside, "spent_s": spent,
            "slowdown": statistics.harmonic_mean(units) / self.reference_unit_s,
            "fastest_unit_s": min(units),
        }


class ArrayProbe(HostProbe):
    """Soft value iteration on a 30x4 table with scipy's logsumexp, 10
    sweeps a unit, one unit every 25 ms: small-array numpy and scipy
    calls, the kind of work the workloads' rounds do."""

    reference_unit_s = 0.92e-3
    SWEEPS = 10

    def __init__(self):
        import numpy as np
        from scipy.special import logsumexp

        super().__init__()
        self._logsumexp = logsumexp
        rng = np.random.default_rng(0)
        self._rewards = rng.uniform(-1.0, 1.0, size=(30, 4))
        self._transitions = rng.dirichlet(np.ones(30), size=(30, 4))
        for _ in range(MIN_UNITS):  # warm the code paths before any section
            self._unit()

    def _unit(self) -> float:
        start = time.perf_counter()
        q = 0.0 * self._rewards
        for _ in range(self.SWEEPS):
            v = 0.2 * self._logsumexp(q / 0.2, axis=1)
            q = self._rewards + 0.9 * (self._transitions @ v)
        return time.perf_counter() - start


class PythonProbe(HostProbe):
    """A 10,000-step integer loop a unit, one every 25 ms; standard library only."""

    reference_unit_s = 0.65e-3
    STEPS = 10_000

    def _unit(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(self.STEPS):
            acc += i * i % 7
        return time.perf_counter() - start
