"""Tests for the public variant/config API."""

import pytest

from repro.core import Config, TESTBED, Variant, make_device, make_fs
from repro.dedup import DeNovaFS, InlineDedupFS
from repro.dedup.inline import AdaptiveInlineFS
from repro.nova import NovaFS
from repro.workloads import DDMode


class TestVariants:
    def test_all_variants_construct(self):
        expected_cls = {
            Variant.BASELINE: NovaFS,
            Variant.INLINE: InlineDedupFS,
            Variant.INLINE_ADAPTIVE: AdaptiveInlineFS,
            Variant.IMMEDIATE: DeNovaFS,
            Variant.DELAYED: DeNovaFS,
        }
        for variant, cls in expected_cls.items():
            fs, dd = make_fs(variant, Config(device_pages=1024,
                                             max_inodes=64))
            assert type(fs) is cls
            assert fs.mounted

    def test_dd_modes_per_variant(self):
        cfg = Config(device_pages=1024, max_inodes=64,
                     delayed_interval_ms=250, delayed_batch=2000)
        _, dd = make_fs(Variant.BASELINE, cfg)
        assert dd == DDMode.none()
        _, dd = make_fs(Variant.IMMEDIATE, cfg)
        assert dd == DDMode.immediate()
        _, dd = make_fs(Variant.DELAYED, cfg)
        assert dd.kind == "delayed"
        assert dd.interval_ms == 250
        assert dd.batch == 2000

    def test_variant_flags(self):
        assert not Variant.BASELINE.has_dedup
        assert Variant.INLINE.has_dedup

    def test_baseline_has_no_fact_region(self):
        fs, _ = make_fs(Variant.BASELINE, Config(device_pages=1024,
                                                 max_inodes=64))
        assert fs.geo.fact_page == 0

    def test_dedup_variants_have_fact(self):
        fs, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=1024,
                                                  max_inodes=64))
        assert fs.geo.fact_page > 0
        assert fs.fact is not None


class TestConfig:
    def test_device_sizing(self):
        cfg = Config(device_pages=2048)
        dev = make_device(cfg)
        assert dev.size == 2048 * 4096

    def test_profile_selection(self):
        cfg = Config.with_profile("PCM", device_pages=1024)
        assert cfg.model.name == "PCM"
        with pytest.raises(KeyError):
            Config.with_profile("FLOPPY")

    def test_shared_device_between_mounts(self):
        cfg = Config(device_pages=1024, max_inodes=64)
        dev = make_device(cfg)
        fs, _ = make_fs(Variant.IMMEDIATE, cfg, dev=dev)
        ino = fs.create("/f")
        fs.write(ino, 0, b"hello")
        fs.unmount()
        fs2 = DeNovaFS.mount(dev)
        assert fs2.read(fs2.lookup("/f"), 0, 5) == b"hello"

    def test_testbed_description(self):
        assert TESTBED["pm_write_latency_ns"] == 90.0
        assert "NOVA" in TESTBED["kernel"]
