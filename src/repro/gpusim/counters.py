"""Kernel cost counters.

Every modeled kernel produces a :class:`KernelStats`: how many bytes it
moved at each level of the memory hierarchy, how many warp instructions it
issued, how many of those are synchronising warp intrinsics (Volta penalty),
how many atomics, and how many kernel launches it took.  The timing model
(:mod:`repro.gpusim.timing`) folds a stats bundle into milliseconds under a
:class:`repro.gpusim.device.DeviceSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class KernelStats:
    """Additive cost counters for one kernel (or a whole algorithm).

    Attributes
    ----------
    launches:
        Kernel launches (each pays the device's fixed overhead).
    dram_bytes:
        Bytes transferred to/from DRAM (post-cache traffic).
    l2_bytes:
        Bytes served by the L2 cache.
    l1_bytes:
        Bytes served by L1/shared memory (close to free; tracked for the
        hit-rate reporting in §VI.C).
    warp_instructions:
        Total warp-level instructions issued (arithmetic + control).
    sync_intrinsics:
        Subset of instructions that are `_sync` warp intrinsics
        (ballot/shfl) — multiplied by the device penalty on Volta.
    atomics:
        Global atomic operations.
    flops:
        Useful arithmetic work (for roofline-style reporting only).
    host_us:
        Host-side serialization: cudaMemcpy syncs, thrust temporary
        allocation, stream synchronization.  GraphBLAST's per-iteration
        frontier management is dominated by this term; Bit-GraphBLAS's
        fused single-kernel iterations avoid it (§V).
    tag:
        Free-form label of what was measured.
    """

    launches: int = 0
    dram_bytes: float = 0.0
    l2_bytes: float = 0.0
    l1_bytes: float = 0.0
    warp_instructions: float = 0.0
    sync_intrinsics: float = 0.0
    atomics: float = 0.0
    flops: float = 0.0
    host_us: float = 0.0
    #: Latency lower bound in µs: the critical path of the longest warp.
    #: Small kernels (few warps) cannot exploit more SMs — this is why
    #: Bit-GraphBLAS barely gains on Volta's 4× SM count while the
    #: many-warp baselines do (§VI.E).  Additive across kernels.
    min_compute_us: float = 0.0
    tag: str = ""

    def __add__(self, other: "KernelStats") -> "KernelStats":
        if not isinstance(other, KernelStats):
            return NotImplemented
        out = replace(self)
        out += other
        return out

    def __iadd__(self, other: "KernelStats") -> "KernelStats":
        """Add ``other`` into ``self`` field by field, in place; ``other``
        is left untouched and ``self`` keeps its tag unless it has
        none."""
        if not isinstance(other, KernelStats):
            return NotImplemented
        self.launches += other.launches
        self.dram_bytes += other.dram_bytes
        self.l2_bytes += other.l2_bytes
        self.l1_bytes += other.l1_bytes
        self.warp_instructions += other.warp_instructions
        self.sync_intrinsics += other.sync_intrinsics
        self.atomics += other.atomics
        self.flops += other.flops
        self.host_us += other.host_us
        self.min_compute_us += other.min_compute_us
        self.tag = self.tag or other.tag
        return self

    def scaled(self, factor: float) -> "KernelStats":
        """Multiply every additive counter by ``factor`` (e.g. to model
        ``k`` identical iterations); launches round up."""
        return KernelStats(
            launches=int(round(self.launches * factor)),
            dram_bytes=self.dram_bytes * factor,
            l2_bytes=self.l2_bytes * factor,
            l1_bytes=self.l1_bytes * factor,
            warp_instructions=self.warp_instructions * factor,
            sync_intrinsics=self.sync_intrinsics * factor,
            atomics=self.atomics * factor,
            flops=self.flops * factor,
            host_us=self.host_us * factor,
            min_compute_us=self.min_compute_us * factor,
            tag=self.tag,
        )

    def device_only(self) -> "KernelStats":
        """Copy with launch and host overheads zeroed — the device-busy
        view used for kernel-row latencies and Figure 6/7 measurements
        (CUDA-event style timing around the kernel body)."""
        return replace(self, launches=0, host_us=0.0)

    @property
    def total_bytes(self) -> float:
        """All bytes requested, regardless of which level served them."""
        return self.dram_bytes + self.l2_bytes + self.l1_bytes

    @property
    def l1_hit_rate(self) -> float:
        """Fraction of requested bytes served by L1 (§VI.C's metric)."""
        total = self.total_bytes
        return self.l1_bytes / total if total else 0.0

    @property
    def transactions(self) -> float:
        """Equivalent 32-byte memory transactions reaching L2 or DRAM —
        comparable to the profiler counter the paper quotes for
        mycielskian8 (§VI.C)."""
        return (self.dram_bytes + self.l2_bytes) / 32.0


@dataclass
class Counters:
    """Mutable counter bag used by the SIMT executor.

    The executor counts *observed* events (per-warp memory transactions,
    instructions, ballots) while running a kernel lane-by-lane; these are
    converted to a :class:`KernelStats` for comparison against the analytic
    model.
    """

    global_load_transactions: int = 0
    global_store_transactions: int = 0
    global_load_bytes: int = 0
    global_store_bytes: int = 0
    shared_load_bytes: int = 0
    shared_store_bytes: int = 0
    instructions: int = 0
    sync_intrinsics: int = 0
    atomics: int = 0
    divergent_branches: int = 0
    extra: dict = field(default_factory=dict)

    def to_kernel_stats(
        self, launches: int = 1, tag: str = ""
    ) -> KernelStats:
        """Convert raw counts; all global traffic is charged to L2+DRAM
        pessimistically (the analytic model refines this with hit rates)."""
        bytes_moved = float(
            self.global_load_bytes + self.global_store_bytes
        )
        return KernelStats(
            launches=launches,
            dram_bytes=bytes_moved,
            l2_bytes=0.0,
            l1_bytes=float(self.shared_load_bytes + self.shared_store_bytes),
            warp_instructions=float(self.instructions),
            sync_intrinsics=float(self.sync_intrinsics),
            atomics=float(self.atomics),
            tag=tag,
        )
