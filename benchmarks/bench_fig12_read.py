"""Fig. 12: read throughput on deduplicated (shared) files.

Paper setup: two duplicate files A and B (4 GB each, scaled here); after
DeNova fully dedups them every data page is shared.  Two threads read A
and B concurrently; the reported number is the B-reader's throughput.
A second experiment overwrites A while B is read (CoW isolates them).

Claim to reproduce: **no degradation** — FACT is not on the read path
and shared pages are read-only, so DeNova equals NOVA in both the
read-only and the mixed read/write case.
"""

from _common import emit, rel

from repro.analysis import render_table
from repro.core import Config, Variant, make_fs
from repro.workloads import DataGenerator
from repro.conc import ConcurrentVFS

FILE_PAGES = 64          # scaled stand-in for the paper's 4 GB files
PAGE = 4096


def setup(variant):
    fs, dd = make_fs(variant, Config(device_pages=8192, max_inodes=64))
    gen = DataGenerator(alpha=0.0, seed=13)
    data = gen.file_data(FILE_PAGES * PAGE)
    a = fs.create("/A")
    b = fs.create("/B")
    fs.write(a, 0, data)
    fs.write(b, 0, data)       # byte-identical duplicate of A
    if hasattr(fs, "daemon"):
        fs.daemon.drain()      # "plenty of time for the DD to finish"
        shared = fs.space_stats()
        assert shared["physical_pages"] == FILE_PAGES  # fully shared
    return fs, dd, a, b


def measure(variant, mixed: bool) -> float:
    """Simulated read throughput (MB/s) of the B-reader thread."""
    fs, dd, a, b = setup(variant)
    vfs = ConcurrentVFS(fs)
    done = {}

    def reader():
        t0 = vfs.eng.now
        moved = 0
        for _ in range(4):  # several passes over B
            for pg in range(FILE_PAGES):
                yield from vfs.op(
                    lambda pg=pg: fs.read(b, pg * PAGE, PAGE),
                    "reader-B", ino=b, ino_mode="r")
                moved += PAGE
        done["ns"] = vfs.eng.now - t0
        done["bytes"] = moved

    def other_thread():
        gen = DataGenerator(alpha=0.0, seed=77, stream=5)
        for _ in range(2):
            for pg in range(FILE_PAGES):
                if mixed:
                    yield from vfs.write(
                        lambda pg=pg, data=gen.file_data(PAGE):
                            fs.write(a, pg * PAGE, data),
                        "thread-A", a)
                else:
                    yield from vfs.op(
                        lambda pg=pg: fs.read(a, pg * PAGE, PAGE),
                        "thread-A", ino=a, ino_mode="r")

    # The dedup pool runs beside both threads (dd is the variant's drive
    # policy): the overwrites of A enqueue DWQ nodes it works off.
    vfs.run([vfs.client(reader(), name="reader-B"),
             vfs.client(other_thread(), name="thread-A")], dd)
    return (done["bytes"] / (1 << 20)) / (done["ns"] / 1e9)


def build():
    out = {}
    for workload, mixed in (("read-only", False), ("read+write", True)):
        for variant in (Variant.BASELINE, Variant.IMMEDIATE):
            out[(workload, variant)] = measure(variant, mixed)
    return out


def test_fig12_read_throughput():
    data = build()
    rows = [[w, v.value, round(t, 1)] for (w, v), t in data.items()]
    doc = {f"{w}/{v.value}": t for (w, v), t in data.items()}
    emit("fig12_read", doc, render_table(
        ["workload", "variant", "B-reader MB/s"],
        rows,
        title="Fig. 12: read throughput of the thread reading file B "
              "(B fully shares pages with A under DeNova)",
    ))
    for workload in ("read-only", "read+write"):
        nova = data[(workload, Variant.BASELINE)]
        deno = data[(workload, Variant.IMMEDIATE)]
        # No degradation: FACT is off the read path, pages are CoW.
        assert abs(rel(deno, nova)) < 0.02, \
            f"{workload}: DeNova read {rel(deno, nova):+.1%} vs NOVA"


def test_reads_never_touch_fact():
    fs, _dd, a, b = setup(Variant.IMMEDIATE)
    lookups = fs.obs.registry.counter("fact.lookups_total")
    lookups_before = lookups.value
    reads_before = fs.dev.stats.reads
    for pg in range(FILE_PAGES):
        fs.read(b, pg * PAGE, PAGE)
    assert lookups.value == lookups_before
    assert fs.dev.stats.reads == reads_before + FILE_PAGES


def test_mixed_workload_cow_isolation():
    """Overwriting A never perturbs B's bytes (shared pages are CoW'd)."""
    fs, _dd, a, b = setup(Variant.IMMEDIATE)
    before = fs.read(b, 0, FILE_PAGES * PAGE)
    gen = DataGenerator(alpha=0.0, seed=5, stream=9)
    fs.write(a, 0, gen.file_data(FILE_PAGES * PAGE))
    fs.daemon.drain()
    assert fs.read(b, 0, FILE_PAGES * PAGE) == before
