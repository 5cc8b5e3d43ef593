"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.pm import PMDevice, SimClock


@pytest.fixture
def image(tmp_path):
    img = str(tmp_path / "disk.img")
    assert main(["mkfs", img, "--pages", "2048", "--inodes", "128"]) == 0
    return img


class TestLifecycle:
    def test_mkfs_creates_loadable_image(self, image):
        dev = PMDevice.load_image(image, clock=SimClock())
        assert dev.size == 2048 * 4096
        assert dev.model.name == "OptaneDCPM"

    def test_mkfs_baseline_variant(self, tmp_path):
        img = str(tmp_path / "nova.img")
        assert main(["mkfs", img, "--variant", "nova",
                     "--pages", "1024", "--inodes", "64"]) == 0
        assert main(["dedup", img]) == 1  # no dedup layer

    @pytest.mark.parametrize("variant", ["denova-inline",
                                         "denova-inline-adaptive"])
    def test_mkfs_rejects_variants_an_image_cannot_remember(
            self, tmp_path, variant, capsys):
        # Nothing on media records "inline": the banner used to print it
        # while every later command mounted the image offline.
        img = tmp_path / "inline.img"
        with pytest.raises(SystemExit) as exc:
            main(["mkfs", str(img), "--variant", variant])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not img.exists()

    def test_mkfs_profile(self, tmp_path):
        img = str(tmp_path / "pcm.img")
        assert main(["mkfs", img, "--profile", "PCM",
                     "--pages", "1024", "--inodes", "64"]) == 0
        assert PMDevice.load_image(img).model.name == "PCM"

    def test_put_get_roundtrip(self, image, tmp_path, capsys):
        src = tmp_path / "src.bin"
        payload = bytes(range(256)) * 30
        src.write_bytes(payload)
        assert main(["put", image, "/data", str(src)]) == 0
        dst = tmp_path / "dst.bin"
        assert main(["get", image, "/data", str(dst)]) == 0
        assert dst.read_bytes() == payload

    def test_put_into_full_image_is_one_error_line(self, tmp_path, capsys):
        img = str(tmp_path / "tiny.img")
        assert main(["mkfs", img, "--pages", "256", "--inodes", "16"]) == 0
        big = tmp_path / "big.bin"
        big.write_bytes(bytes(2 << 20))
        capsys.readouterr()
        assert main(["put", img, "/big", str(big)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NoSpace: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_put_overwrites(self, image, tmp_path):
        a = tmp_path / "a"
        a.write_bytes(b"version one, long " * 100)
        b = tmp_path / "b"
        b.write_bytes(b"v2")
        main(["put", image, "/f", str(a)])
        main(["put", image, "/f", str(b)])
        out = tmp_path / "out"
        main(["get", image, "/f", str(out)])
        assert out.read_bytes() == b"v2"

    def test_ls_and_rm(self, image, tmp_path, capsys):
        f = tmp_path / "f"
        f.write_bytes(b"x")
        main(["put", image, "/a.txt", str(f)])
        main(["put", image, "/b.txt", str(f)])
        capsys.readouterr()
        assert main(["ls", image, "/"]) == 0
        out = capsys.readouterr().out
        assert "a.txt" in out and "b.txt" in out
        assert main(["rm", image, "/a.txt"]) == 0
        capsys.readouterr()
        main(["ls", image, "/"])
        out = capsys.readouterr().out
        assert "a.txt" not in out


class TestDedupAndStats:
    def test_dedup_reports_savings(self, image, tmp_path, capsys):
        f = tmp_path / "dup"
        f.write_bytes(b"\xab" * 8192)
        main(["put", image, "/one", str(f)])
        main(["put", image, "/two", str(f)])
        capsys.readouterr()
        assert main(["dedup", image]) == 0
        out = capsys.readouterr().out
        assert "pages saved" in out
        main(["stats", image])
        out = capsys.readouterr().out
        assert "dedup saving" in out

    def test_workload_command(self, image, capsys):
        assert main(["workload", image, "--files", "30",
                     "--dup", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert main(["fsck", image]) == 0


class TestCrashFsck:
    def test_crash_then_fsck_recovers(self, image, tmp_path, capsys):
        f = tmp_path / "f"
        f.write_bytes(b"survivor" * 100)
        main(["put", image, "/s", str(f)])
        assert main(["crash", image]) == 0
        capsys.readouterr()
        assert main(["fsck", image, "--scrub"]) == 0
        out = capsys.readouterr().out
        assert "invariants OK" in out
        dst = tmp_path / "out"
        main(["get", image, "/s", str(dst)])
        assert dst.read_bytes() == b"survivor" * 100

    def test_fsck_clean_image(self, image, capsys):
        assert main(["fsck", image]) == 0
        assert "clean" in capsys.readouterr().out


class TestModelCommand:
    def test_bench_model_prints_inequality(self, capsys):
        assert main(["bench-model", "--size", "4096",
                     "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "T_w" in out and "T_f" in out


class TestImageFormat:
    def test_load_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.img"
        bad.write_bytes(b"NOTANIMG" + bytes(100))
        with pytest.raises(ValueError, match="not a PM device image"):
            PMDevice.load_image(str(bad))

    def test_load_truncated(self, image):
        data = open(image, "rb").read()
        open(image, "wb").write(data[:len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            PMDevice.load_image(image)

    def test_save_drops_volatile_state(self, tmp_path):
        from repro.pm import DRAM

        dev = PMDevice(64 * 4096, model=DRAM, clock=SimClock())
        dev.write(0, b"durable!")
        dev.persist(0, 8)
        dev.write(64, b"volatile")
        img = str(tmp_path / "d.img")
        dev.save_image(img)
        # The live device still sees its volatile bytes...
        assert dev.read(64, 8) == b"volatile"
        # ...but the image is the power-cycle view.
        dev2 = PMDevice.load_image(img)
        assert dev2.read(0, 8) == b"durable!"
        assert dev2.read(64, 8) == bytes(8)


class TestTreeDu:
    def test_tree_and_du(self, image, tmp_path, capsys):
        f = tmp_path / "f"
        f.write_bytes(b"\xee" * 8192)
        main(["put", image, "/one", str(f)])
        main(["put", image, "/two", str(f)])
        capsys.readouterr()
        assert main(["tree", image]) == 0
        out = capsys.readouterr().out
        assert "one (8192 B)" in out and "two (8192 B)" in out
        main(["dedup", image])
        capsys.readouterr()
        assert main(["du", image]) == 0
        out = capsys.readouterr().out
        assert "unique data pages" in out
        # 2 files x 2 identical pages -> 1 unique data page after dedup.
        assert "    1" in out.splitlines()[-2] or " 1" in out


class TestFuzzCommand:
    def test_small_campaign_clean(self, capsys):
        rc = main(["fuzz", "--seed", "0", "--ops", "60", "--seq-ops", "20",
                   "--budget", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CLEAN" in out
        assert "fuzz.sequences_total" in out

    def test_json_output(self, capsys):
        import json as _json

        rc = main(["fuzz", "--seed", "1", "--ops", "40", "--seq-ops", "20",
                   "--budget", "2", "--json"])
        payload = _json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["sequences"] == 2
        assert payload["failures"] == []

    def test_corpus_replay_roundtrip(self, tmp_path, capsys):
        from repro.fuzz.gen import generate_sequence
        from repro.workloads.trace import Trace

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        ops = generate_sequence(seed=2, stream=0, nops=10)
        Trace(ops=list(ops)).save(corpus / "case.trace")
        rc = main(["fuzz", "--ops", "10", "--budget", "2",
                   "--corpus", str(corpus), "--replay-corpus"])
        assert rc == 0
        assert "CLEAN" in capsys.readouterr().out


class TestErrorContract:
    """One line on stderr + an exit code, never a traceback."""

    #: Subcommands that open an image, with the arguments after it.
    OPENERS = [("ls", ["/"]), ("stats", []), ("fsck", []), ("crash", []),
               ("workload", ["--files", "4"]), ("tree", [])]

    @pytest.mark.parametrize("cmd,rest", OPENERS)
    @pytest.mark.parametrize("kind", ["missing", "not-an-image"])
    def test_unopenable_image(self, cmd, rest, kind, tmp_path, capsys):
        path = tmp_path / "x.img"
        if kind == "not-an-image":
            path.write_bytes(b"just some bytes, not a device image")
        assert main([cmd, str(path), *rest]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_put_from_missing_source(self, image, tmp_path, capsys):
        src = tmp_path / "no-such-file.bin"
        assert main(["put", image, "/x", str(src)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {src}: No such file or directory\n"
        assert main(["ls", image, "/"]) == 0   # and /x was not created
        assert "x" not in capsys.readouterr().out.split()

    def test_get_to_unwritable_destination(self, image, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"payload")
        assert main(["put", image, "/data", str(src)]) == 0
        capsys.readouterr()
        dest = tmp_path / "no-such-dir" / "out.bin"
        assert main(["get", image, "/data", str(dest)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {dest}: No such file or directory\n"

    @pytest.fixture
    def populated(self, image, tmp_path, capsysbinary):
        """An empty regular file, a sub-directory and a snapshot."""
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["put", image, "/empty", str(empty)]) == 0
        assert main(["tenant", "create", image, "alice"]) == 0
        assert main(["snap", image, "create", "s1"]) == 0
        capsysbinary.readouterr()
        return image

    @pytest.mark.parametrize("path", ["/", "/t/alice", "/t/alice/",
                                      "/.snapshots", "/.snapshots/s1"])
    @pytest.mark.parametrize("dest", ["absent", "present", "-"])
    def test_get_of_a_directory_is_refused_before_the_destination(
            self, path, dest, populated, tmp_path, capsysbinary):
        # A directory's size is 0, so the copy loop never reached the
        # fs.read that refuses it: exit 0 and a 0-byte (or truncated)
        # destination, where put says IsADirectory.
        out = tmp_path / "out.bin"
        if dest == "present":
            out.write_bytes(b"as it was")
        rc = main(["get", populated, path, "-" if dest == "-" else str(out)])
        captured = capsysbinary.readouterr()
        assert rc == 1
        assert captured.err.decode() == f"error: IsADirectory: {path}\n"
        assert captured.out == b""
        if dest == "present":
            assert out.read_bytes() == b"as it was"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("dest", ["file", "-"])
    def test_get_of_an_empty_file_still_writes_an_empty_file(
            self, dest, populated, tmp_path, capsysbinary):
        out = tmp_path / "out.bin"
        out.write_bytes(b"stale")
        assert main(["get", populated, "/empty",
                     "-" if dest == "-" else str(out)]) == 0
        captured = capsysbinary.readouterr()
        assert (captured.out, captured.err) == (b"", b"")
        assert out.read_bytes() == (b"stale" if dest == "-" else b"")

    @pytest.mark.parametrize("flag", ["--threads", "--files", "--workers"])
    def test_workload_rejects_non_positive_counts(self, flag, image,
                                                  capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["workload", image, flag, "0"])
        assert exit_.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scrub", "{img}", "--budget"],
        ["scrub", "{img}", "--deep", "--budget"],
        ["repl", "relocate", "{img}", "--budget"],
        ["fuzz", "--ops", "5", "--seq-ops"],
        ["repl", "fanout", "{img}", "s1", "{img}", "--batch"],
        ["repl", "fanin", "{img}", "{img}:s1", "--batch"],
        ["backup", "send", "{img}", "s1", "{img}.bkp", "--max-records"],
        ["backup", "recv", "{img}", "{img}.bkp", "--max-entries"]])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budgeted_passes_reject_non_positive_budgets(self, argv, budget,
                                                         image, capsys):
        """A count below 1 (the last word of ``argv`` is its flag) examined
        or moved nothing and reported "resumable" forever — an idle loop
        for any cron-style caller — or, as ``--seq-ops`` / ``--batch``,
        never returned at all."""
        *argv, flag = argv
        with pytest.raises(SystemExit) as exit_:
            main([arg.format(img=image) for arg in argv]
                 + [f"{flag}={budget}"])
        assert exit_.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    def test_corrupt_journal_count_is_one_error_line(self, image, capsys):
        """state=1/count=999 in the rename journal is media corruption
        (no crash can produce it); fsck must report it, not trace."""
        from repro.nova.layout import PAGE_SIZE, Superblock

        assert main(["crash", image]) == 0   # next mount runs the redo pass
        dev = PMDevice.load_image(image, clock=SimClock())
        journal = Superblock.load(dev).geo.journal_page * PAGE_SIZE
        raw = bytearray(open(image, "rb").read())
        media = len(raw) - dev.size          # image-file header length
        raw[media + journal:media + journal + 16] = (
            (1).to_bytes(8, "little") + (999).to_bytes(8, "little"))
        open(image, "wb").write(bytes(raw))
        capsys.readouterr()
        assert main(["fsck", image]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CorruptImage: journal count 999")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_fact_chain_cycle_is_one_error_line(self, tmp_path, capsys):
        """A FACT entry whose ``next`` names itself is media corruption
        too; the recovery that trips over it used to end in a traceback."""
        from repro.cli import _open_fs
        from repro.dedup.fact import _OFF_NEXT

        img = str(tmp_path / "fact.img")
        src = tmp_path / "src.bin"
        src.write_bytes(bytes(range(256)) * 16)
        assert main(["mkfs", img, "--variant", "denova-immediate",
                     "--pages", "2048", "--inodes", "128"]) == 0
        assert main(["put", img, "/a", str(src)]) == 0
        assert main(["dedup", img]) == 0
        fs = _open_fs(img)
        idx = min(fs.fact.live_entries())
        assert idx < fs.fact.daa_size
        fs.dev.write_atomic64(fs.fact.addr(idx) + _OFF_NEXT, idx + 1,
                              persist=True)
        fs.dev.save_image(img)              # no unmount: next mount recovers
        capsys.readouterr()
        for argv in (["put", img, "/b", str(src)], ["dedup", img]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: FactCorruption: post-recovery cycle")
            assert len(err.splitlines()) == 1 and "Traceback" not in err


#: Every subcommand that opens an existing image, as an argv template.
IMAGE_TAKERS = [
    "ls {img}", "put {img} /x {src}", "get {img} /x {out}", "rm {img} /x",
    "dedup {img}", "stats {img}", "metrics {img}", "trace {img}",
    "profile {img}", "slo {img} --rules {rules}", "fsck {img}",
    "scrub {img}", "crash {img}", "workload {img} --files 4",
    "tenant create {img} al", "tenant list {img}",
    "tenant quota {img} al --quota-pages 3", "tree {img}", "du {img}",
    "reflink {img} /a /b", "snap {img} list",
    "backup send {img} s1 {out}", "backup recv {img} {src}",
    "backup verify {img} {src}", "backup list {img}",
    "repl fanout {img} s1 {img}", "repl fanin {img} {img}:s1",
    "repl relocate {img}", "repl restore {img}",
]


class TestUnmountableImage:
    """A device image that loads but carries no filesystem, or one that
    cannot be its own, is ``CorruptImage``: one ``error:`` line, exit 1,
    from every subcommand that mounts (all used to end in a traceback,
    and ``fsck`` passed a superblock claiming 10^12 pages)."""

    @staticmethod
    def damage(kind: str, sb: bytearray) -> None:
        if kind == "no-magic":      # a crash before mkfs's last store
            sb[0:8] = bytes(8)
        elif kind == "all-ones":    # every geometry word 0xFF...
            sb[16:168] = b"\xff" * 152
        elif kind == "total-pages":
            sb[16:24] = (10 ** 12).to_bytes(8, "little")
        elif kind == "regions-swapped":
            sb[40:48], sb[80:88] = sb[80:88], sb[40:48]  # journal <-> data

    def test_list_covers_every_image_subcommand(self):
        from repro.cli import COMMANDS

        takers = {tuple(t.split(" {img}")[0].split()) for t in IMAGE_TAKERS}
        # mkfs creates the image it names.
        assert takers == {c.path for c in COMMANDS if c.image} - {("mkfs",)}

    @pytest.mark.parametrize("kind", ["no-magic", "all-ones", "total-pages",
                                      "regions-swapped"])
    def test_one_error_line_from_every_subcommand(self, kind, image,
                                                  tmp_path, capsys):
        raw = bytearray(open(image, "rb").read())
        media = 17 + raw[16]                 # image-file header length
        sb = raw[media:media + 168]
        self.damage(kind, sb)
        raw[media:media + 168] = sb
        open(image, "wb").write(raw)
        (tmp_path / "src.bin").write_bytes(b"x" * 5000)
        (tmp_path / "rules.json").write_text('{"rules": []}')
        names = {"img": image, "src": tmp_path / "src.bin",
                 "out": tmp_path / "out.bin",
                 "rules": tmp_path / "rules.json"}
        capsys.readouterr()
        for template in IMAGE_TAKERS:
            assert main(template.format(**names).split()) == 1, template
            out, err = capsys.readouterr()
            assert err.startswith("error: CorruptImage: "), (template, err)
            assert len(err.splitlines()) == 1 and "Traceback" not in err
            assert "invariants OK" not in out
            assert ("bad magic" in err) == (kind == "no-magic")


class TestDamagedImageFile:
    """An image file cut anywhere, or longer than it declares, is one
    ``error:`` line and exit 1 from every subcommand that takes an image
    (a cut inside the header used to end in a ``struct.error``
    traceback; trailing bytes were accepted and ``fsck`` said OK)."""

    @staticmethod
    def damage(kind: str, raw: bytes) -> bytes:
        header = 17 + raw[16]               # magic, size, name length, name
        return {"12-byte file": raw[:12],           # inside the size word
                "16-byte file": raw[:16],           # no name length
                "half a model name": raw[:17 + raw[16] // 2],
                "cut body": raw[:header + (len(raw) - header) // 2],
                "100 trailing bytes": raw + bytes(100)}[kind]

    @pytest.mark.parametrize("kind", ["12-byte file", "16-byte file",
                                      "half a model name", "cut body",
                                      "100 trailing bytes"])
    def test_one_error_line_from_every_subcommand(self, kind, image,
                                                  tmp_path, capsys):
        damaged = self.damage(kind, open(image, "rb").read())
        (tmp_path / "src.bin").write_bytes(b"x" * 5000)
        (tmp_path / "rules.json").write_text('{"rules": []}')
        names = {"img": image, "src": tmp_path / "src.bin",
                 "out": tmp_path / "out.bin",
                 "rules": tmp_path / "rules.json"}
        want = (f"error: {image}: 100 bytes after the image"
                if kind == "100 trailing bytes"
                else f"error: {image}: truncated image")
        capsys.readouterr()
        for template in IMAGE_TAKERS:
            open(image, "wb").write(damaged)
            assert main(template.format(**names).split()) == 1, template
            out, err = capsys.readouterr()
            assert err.splitlines() == [want], (template, err)
            assert "invariants OK" not in out
            assert open(image, "rb").read() == damaged     # left as found

    def test_too_short_for_the_magic_is_not_an_image(self, image, capsys):
        open(image, "wb").write(b"DENO")
        assert main(["fsck", image]) == 1
        assert capsys.readouterr().err == \
            f"error: {image}: not a PM device image\n"


class TestFleetWorkloadHonoursEveryFlag:
    """``workload --tenants N`` used to return before ``--dedup-mode``,
    ``--staging`` and ``--trace-out`` were looked at."""

    FLEET = ["--tenants", "2", "--files", "6"]

    def test_dedup_mode_needs_a_hybrid_image(self, image, capsys):
        assert main(["workload", image, *self.FLEET,
                     "--dedup-mode", "hybrid-inline"]) == 1
        assert "needs an image formatted with --variant denova-hybrid" \
            in capsys.readouterr().err

    def test_staging_absorbs_and_trace_is_written(self, tmp_path, capsys):
        import json as _json

        img = str(tmp_path / "fleet.img")
        trace = tmp_path / "fleet-trace.json"
        assert main(["mkfs", img, "--pages", "4096", "--inodes", "256"]) == 0
        assert main(["workload", img, *self.FLEET, "--staging",
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "staging absorbed: 0 writes + 9 creates" in out
        assert _json.loads(trace.read_text())["traceEvents"]
        assert main(["fsck", img]) == 0


#: ``(argv, exit status, what the one error line says)``; ``IMG`` is the
#: formatted image.
OUT_OF_RANGE = [
    (["fuzz", "--max-failures", "-1"], 2, "must be >= 1"),
    (["fuzz", "--ops", "-5"], 2, "must be >= 1"),
    (["fuzz", "--budget", "-1"], 2, "must be >= 0"),
    (["fuzz", "--clients", "0"], 2, "must be >= 1"),
    (["fuzz", "--tenants", "0"], 2, "must be >= 1"),
    (["fsck", "IMG", "--workers", "0"], 2, "must be >= 1"),
    (["fsck", "IMG", "--workers", "-3"], 2, "must be >= 1"),
    (["trace", "IMG", "--limit", "-1"], 2, "must be >= 0"),
    (["profile", "IMG", "--top", "-2"], 2, "must be >= 0"),
    (["scrub", "IMG", "--cursor", "-5"], 2, "must be >= 0"),
    (["workload", "IMG", "--tenants", "-2"], 2, "must be >= 0"),
    (["workload", "IMG", "--tenants", "2", "--noisy", "5"], 1,
     "noisy tenant 5 is not one of the 2 tenants"),
]


class TestOutOfRangeInputIsRefused:
    """A count, a cursor or a limit out of range is one ``error:`` line
    and a non-zero exit, never a run that quietly does something else
    (``CLEAN: 0 sequences``, the oldest span dropped, a fleet with no
    noisy tenant)."""

    @pytest.mark.parametrize("argv, code, says", [
        pytest.param(*case, id=" ".join(case[0])) for case in OUT_OF_RANGE])
    def test_one_error_line_no_traceback(self, image, argv, code, says,
                                         capsys):
        argv = [image if a == "IMG" else a for a in argv]
        capsys.readouterr()
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert got == code, err
        assert len(errors) == 1 and says in errors[0], err
        assert "Traceback" not in err
