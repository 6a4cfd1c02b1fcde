"""Engine self-profiling: wall-clock time attributed to phases.

Answers "where does a fleet run's real time go" — event-heap pops,
policy decisions (the batched serving pass), schedule replay on the
simulated devices, or telemetry/lifecycle emission. The clock is
injectable (:data:`repro.clock.perf_clock` by default, a
:class:`repro.clock.CountingClock` in tests), so the profiling layer
itself obeys the determinism contract: simulated results never depend
on it, and tests pin its arithmetic with a counted clock.

The measured split is what the telemetry-overhead budget in
``benchmarks/gate.py`` is stated against: telemetry-on fleet
throughput must stay within a fixed ratio of telemetry-off (DESIGN.md
§15).
"""

from __future__ import annotations

from repro.clock import Clock, perf_clock

__all__ = ["PhaseTimers", "PHASES"]

#: canonical phase names the fleet engine attributes time to
PHASES = ("event_pop", "decision", "replay", "telemetry")


class PhaseTimers:
    """Accumulates (seconds, calls) per named phase.

    Usage in the engine::

        t0 = timers.clock()
        ...work...
        timers.add("decision", timers.clock() - t0)
    """

    def __init__(self, clock: Clock = perf_clock):
        self.clock = clock
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Attribute ``seconds`` to ``phase``; ``calls`` lets hot loops
        accumulate locally and flush one aggregate sample."""
        if seconds < 0.0:
            seconds = 0.0  # monotonic clocks can still tie; never go negative
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + calls

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds[k] for k in sorted(self.seconds))

    def fraction(self, phase: str) -> float:
        total = self.total_seconds
        return self.seconds.get(phase, 0.0) / total if total > 0.0 else 0.0

    def to_dict(self) -> dict:
        """Sorted, byte-stable phase table."""
        return {
            "total_seconds": self.total_seconds,
            "phases": {
                name: {
                    "seconds": self.seconds[name],
                    "calls": self.calls.get(name, 0),
                    "fraction": self.fraction(name),
                }
                for name in sorted(self.seconds)
            },
        }
