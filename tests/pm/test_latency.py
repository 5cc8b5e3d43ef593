"""Unit tests for the latency model (Table I profiles + calibration)."""

from dataclasses import replace

import pytest

from repro.pm import CpuModel, DRAM, OPTANE_DCPM, PCM, PROFILES, STT_RAM


def test_profiles_registered():
    assert set(PROFILES) == {"DRAM", "OptaneDCPM", "PCM", "STT-RAM"}


def test_table1_read_latency_ordering():
    """Table I: STT-RAM < DRAM < PCM <= Optane for reads."""
    assert STT_RAM.read_latency_ns < DRAM.read_latency_ns
    assert DRAM.read_latency_ns < PCM.read_latency_ns
    assert PCM.read_latency_ns <= OPTANE_DCPM.read_latency_ns


def test_table1_optane_read_2_to_6x_dram():
    ratio = OPTANE_DCPM.read_latency_ns / DRAM.read_latency_ns
    assert 2.0 <= ratio <= 8.0


def test_table1_optane_write_near_dram():
    """Optane write latency is 60-100 ns, within ~3x of DRAM."""
    assert OPTANE_DCPM.write_latency_ns <= 3 * DRAM.write_latency_ns


def test_table1_endurance_ordering():
    assert (OPTANE_DCPM.write_endurance < PCM.write_endurance
            < STT_RAM.write_endurance < DRAM.write_endurance)


def test_read_cost_latency_plus_bandwidth():
    cost_small = OPTANE_DCPM.read_cost(64)
    cost_big = OPTANE_DCPM.read_cost(4096)
    assert cost_small > OPTANE_DCPM.read_latency_ns
    # Bulk read is bandwidth-dominated, not 64x the small read.
    assert cost_big < 64 * cost_small


def test_write_cost_monotone_in_size():
    sizes = [64, 256, 4096, 65536]
    costs = [OPTANE_DCPM.write_cost(s) for s in sizes]
    assert costs == sorted(costs)


def test_sha1_calibration_matches_table4_regime():
    """Table IV: fingerprinting a 4 KB chunk costs ~11.8 us."""
    cpu = CpuModel()
    fp_us = cpu.sha1_cost(4096) / 1000.0
    assert 10.0 <= fp_us <= 14.0


def test_fingerprint_dominates_write_eq1():
    """Eq. 1 (T_w << T_f) must hold structurally in the cost model."""
    cpu = CpuModel()
    for nbytes in (4096, 16384, 131072, 1 << 20):
        t_w = OPTANE_DCPM.write_cost(nbytes)
        t_f = cpu.sha1_cost(nbytes)
        assert t_f > 2 * t_w, f"T_f must dominate T_w at {nbytes} bytes"


def test_weak_fingerprint_cheaper_than_strong():
    cpu = CpuModel()
    assert cpu.crc32_cost(4096) < cpu.sha1_cost(4096) / 5


def test_with_cpu_replaces_cpu_model():
    """A profile takes another CPU model and keeps its media timings."""
    fast = CpuModel(sha1_ns_per_byte=0.5)
    model = replace(OPTANE_DCPM, cpu=fast)
    assert model.cpu.sha1_ns_per_byte == 0.5
    assert model.read_latency_ns == OPTANE_DCPM.read_latency_ns
    assert OPTANE_DCPM.cpu.sha1_ns_per_byte != 0.5


def test_models_are_frozen():
    with pytest.raises(Exception):
        OPTANE_DCPM.read_latency_ns = 1.0  # type: ignore[misc]
