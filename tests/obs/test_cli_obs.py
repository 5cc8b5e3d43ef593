"""CLI observability surface: stats --json, metrics, trace, sidecar."""

import json

import pytest

from repro.cli import main
from repro.core import Config, Variant, make_fs


@pytest.fixture
def image(tmp_path):
    img = str(tmp_path / "disk.img")
    assert main(["mkfs", img, "--pages", "2048", "--inodes", "128"]) == 0
    return img


def deduped_image(image, tmp_path):
    f = tmp_path / "dup"
    f.write_bytes(b"\xab" * 8192)
    main(["put", image, "/one", str(f)])
    main(["put", image, "/two", str(f)])
    main(["dedup", image])
    return image


class TestStatsJson:
    def test_schema_and_roundtrip(self, image, tmp_path, capsys):
        deduped_image(image, tmp_path)
        capsys.readouterr()
        assert main(["stats", image, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.stats/1"
        assert doc["image"] == image
        assert doc["statfs"]["used_pages"] >= 1
        assert doc["metrics"]["schema"] == "repro.metrics/1"

    def test_required_histograms_present(self, image, tmp_path, capsys):
        """Acceptance: a dedup'd image must expose the DWQ residency and
        FACT lookup-step histograms with samples in them."""
        deduped_image(image, tmp_path)
        capsys.readouterr()
        main(["stats", image, "--json"])
        hists = json.loads(capsys.readouterr().out)["metrics"]["histograms"]
        assert hists["dwq.residency_ns"]["count"] > 0
        assert hists["fact.lookup_steps"]["count"] > 0

    def test_no_negative_gauges_or_counters(self, image, tmp_path, capsys):
        deduped_image(image, tmp_path)
        capsys.readouterr()
        main(["stats", image, "--json"])
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert all(v >= 0 for v in metrics["counters"].values())
        assert all(v >= 0 for v in metrics["gauges"].values())

    def test_sidecar_accumulates_across_invocations(self, image, tmp_path,
                                                    capsys):
        f = tmp_path / "f"
        f.write_bytes(b"\xcd" * 4096)
        main(["put", image, "/a", str(f)])
        capsys.readouterr()
        main(["stats", image, "--json"])
        first = json.loads(capsys.readouterr().out)["metrics"]
        main(["put", image, "/b", str(f)])
        capsys.readouterr()
        main(["stats", image, "--json"])
        second = json.loads(capsys.readouterr().out)["metrics"]
        # Counters are cumulative across processes via the sidecar.
        assert second["counters"]["fs.writes_total"] \
            > first["counters"]["fs.writes_total"]

    def test_stats_table_includes_metrics(self, image, tmp_path, capsys):
        deduped_image(image, tmp_path)
        capsys.readouterr()
        assert main(["stats", image]) == 0
        out = capsys.readouterr().out
        assert "dedup saving" in out          # legacy stats table intact
        assert "dwq.residency_ns" in out      # consolidated metrics follow
        assert "daemon.pages_scanned_total" in out


class TestMetricsCommand:
    def test_prometheus_output(self, image, tmp_path, capsys):
        deduped_image(image, tmp_path)
        capsys.readouterr()
        assert main(["metrics", image]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_fs_writes_total counter" in out
        assert 'repro_dwq_residency_ns_bucket{le="+Inf"}' in out
        assert "repro_dwq_residency_ns_count" in out
        # Bucket counts are cumulative (monotone along le).
        cums = [int(line.rsplit(" ", 1)[1]) for line in out.splitlines()
                if line.startswith("repro_dwq_residency_ns_bucket")]
        assert cums == sorted(cums) and cums[-1] > 0


class TestTraceCommand:
    def test_trace_lists_mount_spans(self, image, capsys):
        capsys.readouterr()
        assert main(["trace", image]) == 0
        out = capsys.readouterr().out
        assert "recovery.mount" in out
        # A clean mount restores from the unmount checkpoint instead of
        # replaying logs.
        assert "recovery.checkpoint_load" in out

    def test_trace_limit(self, image, capsys):
        capsys.readouterr()
        assert main(["trace", image, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        # Only the newest span row survives the tail.
        assert out.count("recovery.") == 1


class TestRegistryLifetime:
    def test_fresh_registry_per_mount(self, tmp_path):
        """Each fs instance (mount) starts from a zeroed registry; history
        lives only in the sidecar, never in process state."""
        fs1, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=256,
                                                max_inodes=16))
        ino = fs1.create("/a")
        fs1.write(ino, 0, b"x" * 4096)
        assert fs1.obs.registry.get("fs.writes_total").value == 1
        fs2, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=256,
                                                max_inodes=16))
        assert fs2.obs.registry.get("fs.writes_total").value == 0
        assert fs2.obs.tracer.total_spans == 0
        assert fs1.obs.registry is not fs2.obs.registry

    def test_hub_reset(self, tmp_path):
        fs, _ = make_fs(Variant.IMMEDIATE, Config(device_pages=256,
                                               max_inodes=16))
        ino = fs.create("/a")
        fs.write(ino, 0, b"y" * 4096)
        fs.obs.reset()
        assert fs.obs.registry.get("fs.writes_total").value == 0
        assert fs.obs.tracer.total_spans == 0
        # Callback-backed metrics still read live provider state.
        assert fs.obs.registry.get("alloc.free_pages").value \
            == fs.allocator.free_pages


class TestTraceFlags:
    def test_name_prefix_filter(self, image, capsys):
        capsys.readouterr()
        assert main(["trace", image, "--name", "recovery.checkpoint"]) == 0
        out = capsys.readouterr().out
        assert "recovery.checkpoint_load" in out
        assert "recovery.mount" not in out

    def test_summary_line_reports_ring_state(self, image, capsys):
        capsys.readouterr()
        main(["trace", image])
        out = capsys.readouterr().out
        summary = [ln for ln in out.splitlines()
                   if ln.startswith("spans_recorded=")]
        assert len(summary) == 1
        assert "spans_evicted=" in summary[0]
        assert "shown=" in summary[0]

    def test_chrome_export_to_file(self, image, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        capsys.readouterr()
        assert main(["trace", image, "--chrome", "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["displayTimeUnit"] == "ns"
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "recovery.mount" in names
        args = [e["args"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all("trace_id" in a for a in args)

    def test_chrome_export_to_stdout(self, image, capsys):
        capsys.readouterr()
        assert main(["trace", image, "--chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "traceEvents" in doc

    def test_folded_export(self, image, capsys):
        capsys.readouterr()
        assert main(["trace", image, "--folded"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln]
        assert lines
        for ln in lines:
            path, ns = ln.rsplit(" ", 1)
            assert path and int(ns) >= 0
        assert any(ln.startswith("recovery.mount;") or
                   ln.startswith("recovery.mount ") for ln in lines)


class TestProfileCommand:
    def test_table_output(self, image, tmp_path, capsys):
        deduped_image(image, tmp_path)
        capsys.readouterr()
        assert main(["profile", image]) == 0
        out = capsys.readouterr().out
        assert "unit: charged simulated ns" in out
        assert "recovery.mount" in out
        assert "top 15 by self_ns:" in out

    def test_json_output_is_profile_doc(self, image, capsys):
        capsys.readouterr()
        assert main(["profile", image, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.profile/1"
        assert doc["unit"] == "charged_ns"
        assert any(k.startswith("recovery.mount") for k in doc["stacks"])

    def test_sidecar_accumulates_across_invocations(self, image, tmp_path,
                                                    capsys):
        import os
        sidecar = image + ".profile.json"
        f = tmp_path / "f"
        f.write_bytes(b"\xcd" * 4096)
        main(["put", image, "/a", str(f)])
        assert os.path.exists(sidecar)
        first = json.loads(open(sidecar).read())
        assert first["schema"] == "repro.profile/1"
        main(["put", image, "/b", str(f)])
        second = json.loads(open(sidecar).read())
        assert second["spans"] > first["spans"]
        write_keys = [k for k in second["stacks"] if "fs.write" in k]
        assert write_keys

    def test_diff_mode(self, image, tmp_path, capsys):
        capsys.readouterr()
        main(["profile", image, "--json"])
        baseline = tmp_path / "base.profile.json"
        baseline.write_text(capsys.readouterr().out)
        f = tmp_path / "f"
        f.write_bytes(b"\xee" * 4096)
        main(["put", image, "/x", str(f)])
        capsys.readouterr()
        assert main(["profile", image, "--diff", str(baseline),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # The delta contains the extra put's write, and little else that
        # grew by more spans than it.
        assert any("fs.write" in k for k in doc["stacks"])


class TestSLOCommand:
    def _rules(self, tmp_path, rules):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps({"schema": "repro.slo/1", "rules": rules}))
        return str(p)

    def test_ok_exits_zero(self, image, tmp_path, capsys):
        rules = self._rules(tmp_path, [
            {"name": "mount-p99", "kind": "latency",
             "metric": "recovery.mount", "max_ns": 1e12}])
        capsys.readouterr()
        assert main(["slo", image, "--rules", rules]) == 0
        assert "SLO OK" in capsys.readouterr().out

    def test_violation_exits_one(self, image, tmp_path, capsys):
        deduped_image(image, tmp_path)
        rules = self._rules(tmp_path, [
            {"name": "writes-floor", "kind": "gauge",
             "metric": "fs.writes_total", "min": 1e9}])
        capsys.readouterr()
        assert main(["slo", image, "--rules", rules]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED writes-floor" in out
        assert "fs.writes_total" in out

    def test_rate_rules_reported_skipped(self, image, tmp_path, capsys):
        """A rate rule is refused with one error line, before mounting."""
        rules = self._rules(tmp_path, [
            {"name": "burn", "kind": "rate", "metric": "fs.writes_total",
             "max_per_s": 1}])
        before = open(image, "rb").read()
        capsys.readouterr()
        assert main(["slo", image, "--rules", rules]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: {rules}: rule 'burn': unknown kind 'rate' "
            f"(expected one of ('latency', 'gauge'))"]
        assert open(image, "rb").read() == before

    def test_json_report(self, image, tmp_path, capsys):
        deduped_image(image, tmp_path)
        rules = self._rules(tmp_path, [
            {"name": "writes-floor", "kind": "gauge",
             "metric": "fs.writes_total", "min": 1e9}])
        capsys.readouterr()
        assert main(["slo", image, "--rules", rules, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.slo.report/1"
        assert doc["alerts"][0]["rule"] == "writes-floor"


class TestWorkloadTraceOut:
    def test_workload_exports_concurrent_chrome_trace(self, image,
                                                      tmp_path, capsys):
        out = tmp_path / "run-trace.json"
        capsys.readouterr()
        assert main(["workload", image, "--files", "12", "--threads", "2",
                     "--workers", "2", "--trace-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        lanes = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert any(n.startswith("writer-") for n in lanes)
        assert any(n.startswith("worker-") for n in lanes)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "dedup.process_node" for e in xs)


class TestSidecarIsReproducible:
    """``merge_snapshots`` walked ``set(ha) | set(hb)``: the key order of
    ``"histograms"`` in the sidecar and in ``stats --json`` followed the
    process's string-hash seed."""

    SEQUENCE = ("mkfs d.img --pages 2048 --inodes 128", "put d.img /one src",
                "put d.img /two src", "dedup d.img", "stats d.img --json")

    def _run(self, where, seed):
        import os
        import subprocess
        import sys

        where.mkdir()
        (where / "src").write_bytes(b"\xab" * 8192)
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        for line in self.SEQUENCE:      # one process per command, as a user
            out = subprocess.run([sys.executable, "-m", "repro",
                                  *line.split()], cwd=where, env=env,
                                 check=True, capture_output=True).stdout
        return (where / "d.img.metrics.json").read_bytes(), out

    def test_same_bytes_under_any_hash_seed(self, tmp_path):
        sidecar, stats = self._run(tmp_path / "one", "1")
        assert len(json.loads(sidecar)["histograms"]) > 3
        assert self._run(tmp_path / "two", "2") == (sidecar, stats)
