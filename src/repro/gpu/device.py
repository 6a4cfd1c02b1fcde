"""The simulated GPU device: partition configuration + job execution.

:class:`SimulatedGpu` stands in for the paper's A100. It exposes the
operations the resource manager performs on real hardware:

* drive the MIG state machine (:class:`repro.gpu.mig.MigManager`) and
  MPS daemons (:class:`repro.gpu.mps.MpsControl`) to realize a
  :class:`~repro.gpu.partition.PartitionTree`,
* launch a co-scheduling group and obtain measured execution times
  (delegated to :mod:`repro.perfmodel`),
* run a job solo — on the full device or on a restricted 1-GPC slice,
  which is what the profiling/classification flow needs.

The device keeps a wall clock so schedulers can account makespans over
many groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    PartitionError,
    ReconfigFaultError,
    SchedulingError,
    TransientDeviceError,
)
from repro.faults import FaultInjector, FaultKind
from repro.telemetry.facade import NULL_TELEMETRY, Telemetry
from repro.gpu.arch import A100_40GB, GpuSpec
from repro.gpu.mig import MigManager
from repro.gpu.mps import MpsControl
from repro.gpu.partition import (
    CiNode,
    GiNode,
    PartitionTree,
    format_partition,
)
from repro.workloads.jobs import Job

if False:  # import-cycle guard: perfmodel imports gpu.partition
    from repro.perfmodel.corun import CoRunResult  # noqa: F401

__all__ = ["LaunchResult", "SimulatedGpu"]


@dataclass(frozen=True)
class LaunchResult:
    """Outcome of one launch (a solo run or one job inside a group)."""

    job_id: str
    benchmark_name: str
    start_time: float
    elapsed: float
    failed: bool = False  # the job crashed ``elapsed`` seconds in

    @property
    def end_time(self) -> float:
        return self.start_time + self.elapsed


@dataclass
class GroupRunRecord:
    """Bookkeeping for one co-scheduled group execution."""

    partition: PartitionTree
    corun: "CoRunResult"
    launches: list[LaunchResult] = field(default_factory=list)


class SimulatedGpu:
    """A MIG+MPS capable device with a wall clock.

    The configuration path is deliberately faithful to the driver
    workflow: ``configure`` resets MIG, creates GIs/CIs per the
    partition tree, and spins up one MPS daemon per CI. Violations of
    the hardware rules surface as :class:`MigError`/:class:`MpsError`
    exactly as they would from the driver, so scheduler bugs cannot
    silently produce impossible configurations.
    """

    def __init__(
        self,
        spec: GpuSpec = A100_40GB,
        faults: FaultInjector | None = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self.spec = spec
        self.mig = MigManager(spec)
        self.clock = 0.0
        # Busy time accumulates only while groups execute; schedulers may
        # jump ``clock`` forward to model idle gaps without touching it.
        self.busy_time = 0.0
        self.faults = faults
        self.telemetry = telemetry
        self.track = "gpu"  # trace track name; GpuNode overrides with its own
        self.history: list[GroupRunRecord] = []
        self._mps_daemons: list[MpsControl] = []

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def configure(self, tree: PartitionTree) -> list[MpsControl]:
        """Realize a partition tree on the device.

        Returns the MPS daemons in slot order scope (one per CI). The
        previous configuration is torn down first; this is only legal
        when the device is idle, matching the MIG restriction.
        """
        tree.validate(self.spec)
        if (
            self.faults is not None
            and self.faults.enabled
            and tree.mig_enabled
            and self.faults.reconfig_fails(format_partition(tree))
        ):
            # Raised before any teardown: the previous configuration
            # stays intact, exactly as a failed nvidia-smi call would
            # leave the real device.
            if self.telemetry.enabled:
                self.telemetry.event(
                    "fault:reconfig",
                    self.track,
                    self.clock,
                    category="fault",
                    partition=format_partition(tree),
                )
            raise ReconfigFaultError(
                f"injected MIG reconfiguration failure realizing "
                f"{format_partition(tree)}"
            )
        for daemon in self._mps_daemons:
            daemon.quit()
        self._mps_daemons = []

        if not tree.mig_enabled:
            if self.mig.enabled:
                self.mig.disable()
            ci = tree.gis[0].cis[0]
            daemon = MpsControl(
                scope_compute_fraction=ci.compute_fraction,
                max_clients=self.spec.max_mps_clients,
            )
            self._mps_daemons.append(daemon)
            if self.telemetry.enabled:
                self.telemetry.event(
                    "configure",
                    self.track,
                    self.clock,
                    category="device",
                    partition=format_partition(tree),
                )
                self.telemetry.count(
                    "device_reconfigs_total", 1, node=self.track
                )
            return self._mps_daemons

        if not self.mig.enabled:
            self.mig.enable()
        else:
            self.mig.reset()
        # Wider GIs have fewer legal placements (a 4g must start at
        # slice 0), so create them first regardless of tree order.
        order = sorted(
            range(len(tree.gis)),
            key=lambda i: tree.gis[i].compute_fraction,
            reverse=True,
        )
        daemons_by_gi: dict[int, list[MpsControl]] = {}
        for gi_index in order:
            gi_node = tree.gis[gi_index]
            gi_slices = round(gi_node.compute_fraction * self.spec.n_gpcs)
            gi = self.mig.create_gi(self.mig.profile_for_slices(gi_slices).name)
            daemons_by_gi[gi_index] = []
            for ci_node in gi_node.cis:
                ci_slices = round(ci_node.compute_fraction * self.spec.n_gpcs)
                self.mig.create_ci(gi, ci_slices)
                daemons_by_gi[gi_index].append(
                    MpsControl(
                        scope_compute_fraction=ci_node.compute_fraction,
                        max_clients=self.spec.max_mps_clients,
                    )
                )
        for gi_index in range(len(tree.gis)):
            self._mps_daemons.extend(daemons_by_gi[gi_index])
        if self.telemetry.enabled:
            self.telemetry.event(
                "configure",
                self.track,
                self.clock,
                category="device",
                partition=format_partition(tree),
            )
            self.telemetry.count("device_reconfigs_total", 1, node=self.track)
        return self._mps_daemons

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_group(self, jobs: list[Job], tree: PartitionTree) -> GroupRunRecord:
        """Configure the device and co-run a job group to completion.

        Jobs bind to ``tree.slots()`` in order. The wall clock advances
        by the group's makespan.

        With a :class:`~repro.faults.FaultInjector` attached, a launch
        may raise :class:`TransientDeviceError` (retryable, no state
        change) or :class:`ReconfigFaultError` (from ``configure``), and
        individual launches may come back ``failed`` (crashed partway)
        or stretched by a straggler slowdown.
        """
        inject = self.faults is not None and self.faults.enabled
        if inject and self.faults.launch_hits_transient(
            "+".join(sorted(j.benchmark_name for j in jobs))
        ):
            if self.telemetry.enabled:
                self.telemetry.event(
                    "fault:transient",
                    self.track,
                    self.clock,
                    category="fault",
                    jobs=[j.benchmark_name for j in jobs],
                )
            raise TransientDeviceError(
                "injected transient device error; launch can be retried"
            )
        daemons = self.configure(tree)
        slots = tree.slots()
        if len(jobs) != len(slots):
            raise SchedulingError(
                f"{len(jobs)} jobs cannot fill {len(slots)} slots"
            )
        # Register each job with its CI's MPS daemon (exercises the MPS
        # oversubscription rules).
        daemon_of_ci: dict[tuple[int, int], MpsControl] = {}
        d = 0
        for gi_i, gi in enumerate(tree.gis):
            for ci_i, _ in enumerate(gi.cis):
                daemon_of_ci[(gi_i, ci_i)] = daemons[d]
                d += 1
        for job, slot in zip(jobs, slots):
            share = tree.gis[slot.gi_index].cis[slot.ci_index].shares[slot.share_index]
            daemon_of_ci[(slot.gi_index, slot.ci_index)].connect(
                job.job_id, share.fraction * 100.0
            )

        from repro.perfmodel.cache import cached_simulate_corun

        corun = cached_simulate_corun([j.model for j in jobs], tree)
        start = self.clock
        if inject:
            tel = self.telemetry
            elapsed: list[float] = []
            crashed: list[bool] = []
            for j, t in zip(jobs, corun.finish_times):
                kind = self.faults.job_fault(j.benchmark_name)
                if kind is FaultKind.JOB_FAILURE:
                    elapsed.append(t * self.faults.config.crash_fraction)
                    crashed.append(True)
                    if tel.enabled:
                        tel.event(
                            "fault:job_failure",
                            self.track,
                            start + elapsed[-1],
                            category="fault",
                            job=j.benchmark_name,
                        )
                elif kind is FaultKind.STRAGGLER:
                    elapsed.append(
                        t * self.faults.straggler_factor(j.benchmark_name)
                    )
                    crashed.append(False)
                    if tel.enabled:
                        tel.event(
                            "fault:straggler",
                            self.track,
                            start,
                            category="fault",
                            job=j.benchmark_name,
                            slowdown=elapsed[-1] / t if t > 0 else 1.0,
                        )
                else:
                    elapsed.append(t)
                    crashed.append(False)
            makespan = max(elapsed)
        else:
            elapsed = list(corun.finish_times)
            crashed = [False] * len(jobs)
            makespan = corun.makespan
        launches = [
            LaunchResult(
                job_id=j.job_id,
                benchmark_name=j.benchmark_name,
                start_time=start,
                elapsed=t,
                failed=f,
            )
            for j, t, f in zip(jobs, elapsed, crashed)
        ]
        self.clock = start + makespan
        self.busy_time += makespan
        for daemon in daemons:
            daemon.quit()
        record = GroupRunRecord(partition=tree, corun=corun, launches=launches)
        self.history.append(record)
        if self.telemetry.enabled:
            self.telemetry.span(
                "run_group",
                self.track,
                start,
                self.clock,
                category="device",
                partition=format_partition(tree),
                concurrency=len(jobs),
                jobs=[j.benchmark_name for j in jobs],
            )
            self.telemetry.count("device_groups_total", 1, node=self.track)
            self.telemetry.count(
                "device_busy_seconds_total", makespan, node=self.track
            )
        return record

    def run_solo(self, job: Job) -> LaunchResult:
        """Run one job with the entire device (time-sharing step)."""
        tree = PartitionTree(
            gis=(GiNode(1.0, (CiNode(1.0),)),), mig_enabled=False
        )
        record = self.run_group([job], tree)
        return record.launches[0]

    def run_solo_restricted(self, job: Job, gpcs: int) -> LaunchResult:
        """Run one job alone on a private ``gpcs``-GPC MIG slice.

        Used by the classification procedure (paper Section V-A2): the
        1-GPC private run versus the full 8-GPC run decides the
        UnScalable class.
        """
        if not 0 < gpcs <= self.spec.mig_compute_slices:
            raise PartitionError(
                f"restricted run requires 1..{self.spec.mig_compute_slices} "
                f"GPCs; got {gpcs}"
            )
        mem = self.spec.memory_slices_for_gpcs(gpcs) / self.spec.mig_memory_slices
        tree = PartitionTree(
            gis=(GiNode(mem, (CiNode(gpcs / self.spec.n_gpcs),)),),
            mig_enabled=True,
        )
        record = self.run_group([job], tree)
        return record.launches[0]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def reset_clock(self) -> None:
        self.clock = 0.0
        self.busy_time = 0.0

    @property
    def total_groups_run(self) -> int:
        return len(self.history)
