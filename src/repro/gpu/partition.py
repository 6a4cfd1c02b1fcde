"""Hierarchical partition trees and the paper's bracket notation.

A partition describes how the device is carved for one co-scheduling
group. It has three levels, mirroring Fig. 1 / Fig. 2 of the paper:

* **GI level** (MIG GPU instances): physical isolation. Each GI owns a
  fraction of the device memory bandwidth (its HBM/LLC slices).
* **CI level** (MIG compute instances): exclusive compute slices inside
  a GI; memory is shared across all CIs of the GI.
* **MPS level**: logical shares (active-thread percentages) inside one
  CI; one share = one job slot.

Notation (Section V-A5 of the paper)::

    [(0.1)+(0.9),1m]                      MPS only, two jobs at 10%/90%
    [{0.375}+{0.5},1m]                    MIG only, shared memory
    [{0.375},0.5m]+[{0.5},0.5m]           MIG only, private memory
    [(0.1)+(0.9),{0.5},0.5m]+[{0.375},0.5m]
                                          hierarchical: MPS inside a CI

``{β}`` is a CI owning ``β``x100% of the *device* compute; ``(p)`` is an
MPS share owning ``p``x100% of its *enclosing scope*; ``αm`` is the GI's
fraction of device memory bandwidth. MPS shares bind to the CI that
follows them; trailing shares without a CI occupy the GI's full scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import PartitionError
from repro.gpu.arch import GpuSpec

__all__ = [
    "MpsShare",
    "CiNode",
    "GiNode",
    "PartitionTree",
    "Slot",
    "format_partition",
    "parse_partition",
]

#: Tolerance for fractional comparisons (partition fractions are small
#: rationals; accumulated float error stays far below this).
_EPS = 1e-9


@dataclass(frozen=True)
class MpsShare:
    """One job slot: a share of its enclosing CI's compute resources."""

    fraction: float  # of the enclosing CI, in (0, 1]

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0 + _EPS:
            raise PartitionError(f"MPS share must be in (0, 1]; got {self.fraction}")


@dataclass(frozen=True)
class CiNode:
    """A compute instance: ``compute_fraction`` of the *device*, holding
    one or more MPS shares (one per co-located job)."""

    compute_fraction: float
    shares: tuple[MpsShare, ...] = (MpsShare(1.0),)

    def __post_init__(self) -> None:
        if not 0.0 < self.compute_fraction <= 1.0 + _EPS:
            raise PartitionError(
                f"CI compute fraction must be in (0, 1]; got {self.compute_fraction}"
            )
        if not self.shares:
            raise PartitionError("a CI must hold at least one MPS share")
        total = sum(s.fraction for s in self.shares)
        if total > 1.0 + 1e-6:
            raise PartitionError(
                f"MPS shares oversubscribe the CI: sum={total:.3f} > 1"
            )

    @property
    def n_slots(self) -> int:
        return len(self.shares)


@dataclass(frozen=True)
class GiNode:
    """A GPU instance: ``mem_fraction`` of device bandwidth + CIs."""

    mem_fraction: float
    cis: tuple[CiNode, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.mem_fraction <= 1.0 + _EPS:
            raise PartitionError(
                f"GI memory fraction must be in (0, 1]; got {self.mem_fraction}"
            )
        if not self.cis:
            raise PartitionError("a GI must hold at least one CI")

    @property
    def compute_fraction(self) -> float:
        return sum(ci.compute_fraction for ci in self.cis)

    @property
    def n_slots(self) -> int:
        return sum(ci.n_slots for ci in self.cis)


@dataclass(frozen=True)
class Slot:
    """A resolved job slot with device-level resource fractions.

    ``compute_fraction`` is the slot's share of full-device compute
    (MPS share x CI fraction). ``mem_fraction`` is its GI's bandwidth
    fraction — shared with every other slot in ``mem_domain``.
    """

    gi_index: int
    ci_index: int
    share_index: int
    compute_fraction: float
    mem_fraction: float


@dataclass(frozen=True)
class PartitionTree:
    """A complete hierarchical partition for one co-scheduling group."""

    gis: tuple[GiNode, ...]
    mig_enabled: bool = True

    def __post_init__(self) -> None:
        if not self.gis:
            raise PartitionError("a partition needs at least one GI")
        if not self.mig_enabled and len(self.gis) != 1:
            raise PartitionError("without MIG the device is a single GI")

    # -- structure ------------------------------------------------------
    @property
    def n_slots(self) -> int:
        return sum(gi.n_slots for gi in self.gis)

    @property
    def total_compute_fraction(self) -> float:
        return sum(gi.compute_fraction for gi in self.gis)

    @property
    def total_mem_fraction(self) -> float:
        return sum(gi.mem_fraction for gi in self.gis)

    def slots(self) -> list[Slot]:
        """All job slots, in GI -> CI -> share order (the binding order
        used throughout the scheduler)."""
        out: list[Slot] = []
        for gi_i, gi in enumerate(self.gis):
            for ci_i, ci in enumerate(gi.cis):
                for sh_i, share in enumerate(ci.shares):
                    out.append(
                        Slot(
                            gi_index=gi_i,
                            ci_index=ci_i,
                            share_index=sh_i,
                            compute_fraction=share.fraction * ci.compute_fraction,
                            mem_fraction=gi.mem_fraction,
                        )
                    )
        return out

    def mem_domains(self) -> list[list[int]]:
        """Slot indices grouped by memory domain (one domain per GI)."""
        domains: list[list[int]] = []
        idx = 0
        for gi in self.gis:
            domains.append(list(range(idx, idx + gi.n_slots)))
            idx += gi.n_slots
        return domains

    # -- validation ------------------------------------------------------
    def validate(self, spec: GpuSpec) -> None:
        """Check feasibility against a device spec.

        Raises :class:`PartitionError` for: non-GPC-aligned MIG
        fractions, slice-budget overflow, memory-slice overflow, or a
        memory fraction inconsistent with the GI width.
        """
        if not self.mig_enabled:
            gi = self.gis[0]
            if len(gi.cis) != 1:
                raise PartitionError("CIs require MIG; found several without it")
            if abs(gi.mem_fraction - 1.0) > _EPS:
                raise PartitionError("without MIG the GI owns all memory")
            if gi.cis[0].compute_fraction < 1.0 - _EPS:
                raise PartitionError("without MIG the single CI spans the device")
            return

        total_slices = 0
        total_mem_slices = 0
        for gi in self.gis:
            gi_slices = 0
            for ci in gi.cis:
                slices = ci.compute_fraction * spec.n_gpcs
                if abs(slices - round(slices)) > 1e-6 or round(slices) < 1:
                    raise PartitionError(
                        f"CI fraction {ci.compute_fraction} is not a whole "
                        f"number of GPCs on {spec.name}"
                    )
                gi_slices += round(slices)
            expected_mem = spec.memory_slices_for_gpcs(gi_slices)
            mem_slices = gi.mem_fraction * spec.mig_memory_slices
            if abs(mem_slices - round(mem_slices)) > 1e-6:
                raise PartitionError(
                    f"GI memory fraction {gi.mem_fraction} is not a whole "
                    f"number of memory slices"
                )
            if round(mem_slices) != expected_mem:
                raise PartitionError(
                    f"GI with {gi_slices} GPCs must own {expected_mem} memory "
                    f"slices, not {round(mem_slices)}"
                )
            total_slices += gi_slices
            total_mem_slices += round(mem_slices)
        if total_slices > spec.mig_compute_slices:
            raise PartitionError(
                f"partition uses {total_slices} compute slices; the device "
                f"offers {spec.mig_compute_slices} under MIG"
            )
        if total_mem_slices > spec.mig_memory_slices:
            raise PartitionError(
                f"partition uses {total_mem_slices} memory slices; the device "
                f"offers {spec.mig_memory_slices}"
            )


# ---------------------------------------------------------------------------
# notation
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """Format a fraction the way the paper prints it (trim zeros)."""
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return s if s else "0"


def format_partition(tree: PartitionTree) -> str:
    """Render a partition in the paper's bracket notation."""
    parts = []
    for gi in tree.gis:
        fields: list[str] = []
        for ci in gi.cis:
            plain = len(ci.shares) == 1 and abs(ci.shares[0].fraction - 1.0) < _EPS
            if tree.mig_enabled:
                if plain:
                    fields.append("{%s}" % _fmt(ci.compute_fraction))
                else:
                    procs = "+".join(f"({_fmt(s.fraction)})" for s in ci.shares)
                    fields.append(procs + ",{%s}" % _fmt(ci.compute_fraction))
            else:
                procs = "+".join(f"({_fmt(s.fraction)})" for s in ci.shares)
                fields.append(procs)
        fields.append(f"{_fmt(gi.mem_fraction)}m")
        parts.append("[" + ",".join(fields) + "]")
    return "+".join(parts)


_TOKEN_RE = re.compile(
    r"\{(?P<ci>[0-9.]+)\}|\((?P<proc>[0-9.]+)\)|(?P<mem>[0-9.]+)m"
)


def parse_partition(text: str, mig_enabled: bool | None = None) -> PartitionTree:
    """Parse the paper's bracket notation into a :class:`PartitionTree`.

    The parser is deliberately lenient about separators (the paper mixes
    ``+`` and ``,``): inside a GI, only the ordered sequence of tokens
    matters. MPS shares bind to the next ``{..}`` CI; trailing shares
    form a full-scope CI. ``mig_enabled`` is inferred when omitted: a
    partition with several GIs or any ``{..}`` CI implies MIG.
    """
    text = text.strip()
    if not text:
        raise PartitionError("empty partition string")
    # split on '+' between ']' and '[' only
    gi_strings = re.split(r"\]\s*\+\s*\[", text)
    gi_strings[0] = gi_strings[0].lstrip("[")
    gi_strings[-1] = gi_strings[-1].rstrip("]")

    gis: list[GiNode] = []
    saw_ci = False
    for gi_text in gi_strings:
        pending: list[MpsShare] = []
        cis: list[CiNode] = []
        mem: float | None = None
        matched_len = 0
        for m in _TOKEN_RE.finditer(gi_text):
            matched_len += len(m.group(0))
            if m.group("proc") is not None:
                pending.append(MpsShare(float(m.group("proc"))))
            elif m.group("ci") is not None:
                saw_ci = True
                shares = tuple(pending) if pending else (MpsShare(1.0),)
                cis.append(CiNode(float(m.group("ci")), shares))
                pending = []
            else:
                if mem is not None:
                    raise PartitionError(
                        f"multiple memory fields in GI {gi_text!r}"
                    )
                mem = float(m.group("mem"))
        leftover = re.sub(r"[\s,+]", "", _TOKEN_RE.sub("", gi_text))
        if leftover:
            raise PartitionError(
                f"unrecognized text {leftover!r} in partition {text!r}"
            )
        if pending:
            # trailing MPS shares with no CI: they occupy the whole scope
            cis.append(CiNode(1.0 if mem is None else mem_scope(mem, cis), tuple(pending)))
        if mem is None:
            raise PartitionError(f"GI {gi_text!r} lacks a memory field (e.g. '0.5m')")
        if not cis:
            raise PartitionError(f"GI {gi_text!r} has no compute allocation")
        gis.append(GiNode(mem_fraction=mem, cis=tuple(cis)))

    if mig_enabled is None:
        mig_enabled = saw_ci or len(gis) > 1
    return PartitionTree(gis=tuple(gis), mig_enabled=mig_enabled)


def mem_scope(mem: float, existing: list[CiNode]) -> float:
    """Compute fraction for a trailing bare-scope CI.

    Without MIG the scope is the full device (1.0). We approximate the
    scope of a bare MPS group inside a GI as the GI's remaining compute;
    when no CI precedes it, that is the full device for the non-MIG case
    and the GI width (== mem fraction for non-full GIs) otherwise.
    """
    used = sum(ci.compute_fraction for ci in existing)
    if existing:
        remaining = mem - used
        if remaining <= _EPS:
            raise PartitionError("bare MPS group has no compute left in the GI")
        return remaining
    return 1.0
