"""The simulated Nsight Compute profiler.

Profiling a job means: run it solo on the full device, run it solo on a
1-GPC private MIG slice (the classification procedure needs both), and
synthesize the Table III counters from the observed run and the device
spec. Optional multiplicative measurement noise (deterministic per
program name) models run-to-run counter variation; it defaults to a
small value so that profiles look like measurements, not model
parameters, without destabilizing the classification.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ProfileError
from repro.gpu.arch import GpuSpec
from repro.gpu.device import SimulatedGpu
from repro.profiling.counters import HardwareCounters
from repro.workloads.jobs import Job
from repro.workloads.kernels import KernelModel

__all__ = ["JobProfile", "NsightProfiler"]


@dataclass(frozen=True)
class JobProfile:
    """Everything the scheduler may know about a program.

    ``solo_time`` is the full-device solo run; ``one_gpc_time`` the
    1-GPC private MIG run used by the UnScalable test. The counters are
    the Table III sample from the full-device run.
    """

    benchmark_name: str
    binary_path: str
    counters: HardwareCounters
    solo_time: float
    one_gpc_time: float

    def __post_init__(self) -> None:
        for name in ("solo_time", "one_gpc_time"):
            if not math.isfinite(getattr(self, name)):
                raise ProfileError(
                    f"{self.benchmark_name}: {name} must be finite; "
                    f"got {getattr(self, name)}"
                )

    def to_dict(self) -> dict:
        return {
            "benchmark_name": self.benchmark_name,
            "binary_path": self.binary_path,
            "counters": self.counters.to_dict(),
            "solo_time": self.solo_time,
            "one_gpc_time": self.one_gpc_time,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JobProfile":
        return cls(
            benchmark_name=d["benchmark_name"],
            binary_path=d["binary_path"],
            counters=HardwareCounters.from_dict(d["counters"]),
            solo_time=float(d["solo_time"]),
            one_gpc_time=float(d["one_gpc_time"]),
        )


class NsightProfiler:
    """Collects job profiles on a simulated device.

    ``noise`` is the relative sigma of multiplicative counter noise,
    seeded per program name so repeated profiling of the same binary is
    deterministic (a real Nsight run is noisy but a stored profile is a
    single snapshot).
    """

    def __init__(self, device: SimulatedGpu, noise: float = 0.0):
        if noise < 0 or noise > 0.2:
            raise ValueError("noise sigma must be in [0, 0.2]")
        self.device = device
        self.noise = noise

    def profile(self, job: Job) -> JobProfile:
        """Profile one job: full-device solo run + 1-GPC private run."""
        solo = self.device.run_solo(job)
        one_gpc = self.device.run_solo_restricted(job, gpcs=1)
        counters = self._synthesize(job.model, self.device.spec, solo.elapsed)
        return JobProfile(
            benchmark_name=job.benchmark_name,
            binary_path=job.binary_path,
            counters=counters,
            solo_time=solo.elapsed,
            one_gpc_time=one_gpc.elapsed,
        )

    # ------------------------------------------------------------------
    def _rng(self, name: str) -> np.random.Generator:
        digest = hashlib.sha256(name.encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def _jitter(self, rng: np.random.Generator) -> float:
        if self.noise == 0.0:
            return 1.0
        return float(np.exp(rng.normal(0.0, self.noise)))

    def _synthesize(
        self, model: KernelModel, spec: GpuSpec, duration: float
    ) -> HardwareCounters:
        """Derive the Table III counters from the kernel model.

        ``Compute (SM) [%]`` is SM-busy time weighted by warp occupancy
        (an SM stalled at low occupancy is not "busy" to Nsight);
        ``Memory [%]`` is the average DRAM utilization. L2/L1
        throughputs back out of the DRAM traffic through the hit rates.
        """
        rng = self._rng(model.name)
        warp_eff = min(1.0, model.achieved_warps_per_sm / spec.max_warps_per_sm)
        compute_pct = 100.0 * model.compute_duty * warp_eff
        memory_pct = 100.0 * model.avg_dram_utilization
        dram_bps = model.bw_demand * spec.mem_bandwidth
        l2_bps = dram_bps / max(1e-3, 1.0 - model.l2_hit_rate)
        l1_bps = l2_bps / max(1e-3, 1.0 - model.l1_hit_rate)
        elapsed_cycles = duration * spec.sm_clock_hz
        sm_active = elapsed_cycles * model.compute_duty

        return HardwareCounters(
            duration=duration * self._jitter(rng),
            memory_pct=min(100.0, memory_pct * self._jitter(rng)),
            elapsed_cycles=elapsed_cycles * self._jitter(rng),
            grid_size=float(model.grid_size),
            registers_per_thread=float(model.registers_per_thread),
            dram_throughput=dram_bps * self._jitter(rng),
            l1_tex_throughput=l1_bps * self._jitter(rng),
            l2_throughput=l2_bps * self._jitter(rng),
            sm_active_cycles=sm_active * self._jitter(rng),
            compute_sm_pct=min(100.0, compute_pct * self._jitter(rng)),
            waves_per_sm=model.waves_per_sm * self._jitter(rng),
            achieved_active_warps_per_sm=(
                model.achieved_warps_per_sm * self._jitter(rng)
            ),
        )
