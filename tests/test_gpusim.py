"""Tests for the GPU simulator substrate: devices, counters, caches,
timing."""

from dataclasses import replace

import numpy as np
import pytest

from repro.gpusim.cache import (
    SetAssociativeCache,
    coalesced_transactions,
    gather_hit_fraction,
    hit_fraction,
)
from repro.gpusim.counters import Counters, KernelStats
from repro.gpusim.device import (
    GTX1080,
    TITAN_V,
    device_by_name,
)
from repro.gpusim.timing import (
    compute_time_us,
    device_time_ms,
    memory_time_us,
    time_ms,
    time_us,
)


class TestDeviceSpecs:
    def test_table6_pascal(self):
        assert GTX1080.sms == 20
        assert GTX1080.mem_bw_gbs == 320.0
        assert GTX1080.l1_kb == 48
        assert GTX1080.l2_kb == 2048
        assert GTX1080.shared_kb_per_sm == 64
        assert GTX1080.dram_gb == 8.0

    def test_table6_volta(self):
        assert TITAN_V.sms == 80
        assert TITAN_V.mem_bw_gbs == 653.0
        assert TITAN_V.l1_kb == 96
        assert TITAN_V.l2_kb == 4608
        assert TITAN_V.shared_kb_per_sm == 96
        assert TITAN_V.dram_gb == 12.0

    def test_volta_sync_penalty(self):
        """§VI.E: _sync intrinsics are penalised on Volta only."""
        assert GTX1080.sync_intrinsic_penalty == 1.0
        assert TITAN_V.sync_intrinsic_penalty > 1.0

    def test_lookup_aliases(self):
        assert device_by_name("Pascal") is GTX1080
        assert device_by_name("GTX1080") is GTX1080
        assert device_by_name("volta") is TITAN_V
        assert device_by_name("Titan_V") is TITAN_V

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            device_by_name("ampere")

    def test_derived_rates_positive(self):
        for dev in (GTX1080, TITAN_V):
            assert dev.warp_issue_rate_ghz > 0
            assert dev.effective_bw_bytes_per_us > 0
            assert dev.l2_bw_bytes_per_us > dev.effective_bw_bytes_per_us


class TestKernelStats:
    def test_addition(self):
        a = KernelStats(launches=1, dram_bytes=100, warp_instructions=10)
        b = KernelStats(launches=2, dram_bytes=50, atomics=3, host_us=5)
        c = a + b
        assert c.launches == 3
        assert c.dram_bytes == 150
        assert c.warp_instructions == 10
        assert c.atomics == 3
        assert c.host_us == 5

    def test_iadd(self):
        a = KernelStats(launches=1, dram_bytes=10)
        a += KernelStats(launches=1, l2_bytes=20)
        assert a.launches == 2 and a.l2_bytes == 20

    def test_iadd_in_place(self):
        """``+=`` adds into the left operand itself (aliases see it),
        leaves the right operand untouched, keeps the left tag unless it
        is empty, and gives the fields of ``+``."""
        a = KernelStats(launches=1, dram_bytes=0.1, min_compute_us=0.2)
        b = KernelStats(
            launches=2, dram_bytes=0.2, min_compute_us=0.1, host_us=4.0,
            tag="bmv",
        )
        alias = a
        b_before = replace(b)
        want = a + b
        a += b
        assert a is alias
        assert a == want
        assert b == b_before
        assert a.tag == "bmv"
        c = KernelStats(tag="ewise")
        c += b
        assert c.tag == "ewise"
        with pytest.raises(TypeError):
            c += 1

    def test_scaled(self):
        a = KernelStats(
            launches=2, dram_bytes=10, sync_intrinsics=4, host_us=3
        )
        s = a.scaled(2.5)
        assert s.launches == 5
        assert s.dram_bytes == 25
        assert s.sync_intrinsics == 10
        assert s.host_us == 7.5

    def test_device_only_strips_overheads(self):
        a = KernelStats(launches=3, dram_bytes=10, host_us=40)
        d = a.device_only()
        assert d.launches == 0 and d.host_us == 0
        assert d.dram_bytes == 10

    def test_l1_hit_rate(self):
        a = KernelStats(dram_bytes=30, l2_bytes=20, l1_bytes=50)
        assert a.l1_hit_rate == pytest.approx(0.5)
        assert KernelStats().l1_hit_rate == 0.0

    def test_transactions(self):
        a = KernelStats(dram_bytes=64, l2_bytes=32)
        assert a.transactions == pytest.approx(3.0)

    def test_counters_to_stats(self):
        c = Counters()
        c.global_load_bytes = 320
        c.instructions = 7
        c.sync_intrinsics = 2
        s = c.to_kernel_stats(launches=1, tag="x")
        assert s.dram_bytes == 320
        assert s.warp_instructions == 7
        assert s.sync_intrinsics == 2
        assert s.tag == "x"


class TestTiming:
    def test_memory_time_scales_with_bytes(self):
        a = KernelStats(dram_bytes=1e6)
        b = KernelStats(dram_bytes=2e6)
        assert memory_time_us(b, GTX1080) == pytest.approx(
            2 * memory_time_us(a, GTX1080)
        )

    def test_volta_has_more_bandwidth(self):
        a = KernelStats(dram_bytes=1e6)
        assert memory_time_us(a, TITAN_V) < memory_time_us(a, GTX1080)

    def test_compute_time_sync_penalty_on_volta(self):
        plain = KernelStats(warp_instructions=1e6)
        syncy = KernelStats(warp_instructions=1e6, sync_intrinsics=1e6)
        assert compute_time_us(plain, GTX1080) == pytest.approx(
            compute_time_us(syncy, GTX1080)
        )
        assert compute_time_us(syncy, TITAN_V) > compute_time_us(
            plain, TITAN_V
        )

    def test_roofline_max(self):
        mem_bound = KernelStats(dram_bytes=1e8, warp_instructions=1)
        t = time_us(mem_bound, GTX1080)
        assert t == pytest.approx(
            memory_time_us(mem_bound, GTX1080), rel=1e-3
        )

    def test_launch_overhead_additive(self):
        a = KernelStats(launches=10)
        assert time_us(a, GTX1080) == pytest.approx(
            10 * GTX1080.launch_overhead_us
        )

    def test_host_us_additive(self):
        a = KernelStats(host_us=123.0)
        assert time_us(a, GTX1080) == pytest.approx(123.0)

    def test_device_time_excludes_overheads(self):
        a = KernelStats(launches=5, dram_bytes=1e6, host_us=100)
        assert device_time_ms(a, GTX1080) == pytest.approx(
            time_ms(KernelStats(dram_bytes=1e6), GTX1080)
        )

    def test_ms_is_us_over_1000(self):
        a = KernelStats(dram_bytes=1e7, launches=2)
        assert time_ms(a, GTX1080) == pytest.approx(
            time_us(a, GTX1080) / 1e3
        )


class TestHitFraction:
    def test_fits_entirely(self):
        assert hit_fraction(100, 1000) == 1.0
        assert hit_fraction(0, 10) == 1.0

    def test_partial_fit_monotonic(self):
        h = [hit_fraction(ws, 1000) for ws in (1000, 2000, 4000, 10000)]
        assert h[0] == 1.0
        assert all(a > b for a, b in zip(h, h[1:], strict=False))

    def test_bounds(self):
        for ws in (10, 1e3, 1e6, 1e9):
            assert 0.0 <= hit_fraction(ws, 4096) <= 1.0

    def test_gather_locality_floor(self):
        # Perfect locality: always hits regardless of size.
        assert gather_hit_fraction(1e9, 1024, 1.0) == pytest.approx(1.0)
        # No locality, huge working set: near zero.
        assert gather_hit_fraction(1e9, 1024, 0.0) < 0.01

    def test_gather_monotonic_in_locality(self):
        hs = [
            gather_hit_fraction(1e6, 65536, loc)
            for loc in (0.0, 0.3, 0.7, 1.0)
        ]
        assert all(a <= b for a, b in zip(hs, hs[1:], strict=False))


class TestCoalescing:
    def test_fully_coalesced_warp(self):
        # 32 consecutive 4-byte words = 128 B = 4 sectors.
        addrs = np.arange(32) * 4
        assert coalesced_transactions(addrs, 4) == 4

    def test_fully_scattered_warp(self):
        addrs = np.arange(32) * 4096
        assert coalesced_transactions(addrs, 4) == 32

    def test_single_address(self):
        assert coalesced_transactions(np.array([100]), 4) == 1

    def test_empty(self):
        assert coalesced_transactions(np.array([]), 4) == 0

    def test_straddling_access(self):
        # An 8-byte access crossing a sector boundary touches 2 sectors.
        assert coalesced_transactions(np.array([28]), 8) == 2


class TestSetAssociativeCache:
    def test_repeat_hits(self):
        c = SetAssociativeCache(1024, ways=2)
        assert not c.access(0)
        assert c.access(0)
        assert c.hit_rate == 0.5

    def test_lru_eviction(self):
        c = SetAssociativeCache(2 * 128, ways=2, line_bytes=128)
        # Single set, 2 ways: A B C evicts A.
        stride = c.n_sets * 128
        c.access(0)
        c.access(stride)
        c.access(2 * stride)
        assert not c.access(0)

    def test_lru_refresh(self):
        c = SetAssociativeCache(2 * 128, ways=2, line_bytes=128)
        stride = c.n_sets * 128
        c.access(0)
        c.access(stride)
        c.access(0)  # refresh 0
        c.access(2 * stride)  # evicts `stride`, not 0
        assert c.access(0)

    def test_reset_counters(self):
        c = SetAssociativeCache(1024)
        c.access(0)
        c.reset_counters()
        assert c.hits == 0 and c.misses == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0)
