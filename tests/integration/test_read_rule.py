"""docs/CONSISTENCY.md §5's line rule, checked over whole workloads.

Each pass is one ``BENCHMARK.json`` workload as
``benchmarks/e2e/workloads.py`` sets it up at seed 42 and a common
``scale`` (the factor ``run.py --seconds`` applies): its filesystem
(variant, device, CPUs), its ``JobSpec`` or ``FleetSpec`` and its dedup
drive are taken where the benchmark hands them to its DES runner
(``runner.run_workload`` / ``fleet.run_fleet``).  The pass then makes the
runner's calls itself, one at a time, each client in turn: every file,
byte and call is the benchmark's, only the interleaving is not the
DES's — a delayed daemon runs its batch when the sequential clock passes
its tick, an immediate one drains after each call.  It ends as the
benchmark's check does: every file read back, the device crashes
(``discard``), the unclean mount (``crash_sweep``'s recovery), every file
read back again.  Each step is one root — one VFS call, one
``daemon.process_one()`` or the mount — and the ledger
(``tests/_ledger.py``) records every request.

**The rule.**  A charged request re-reads when every 64 B line it covers
was read or temporally stored earlier in its root, and no write-back of
that line came after: a ``clwb``, a ``persist`` or a ``persist=True``
store write a line back, and a non-temporal store goes round the cache,
so each of them resets it.  Every re-read the passes make is counted by
``(shape, region, caller)`` — the region's kind (``FACT``, ``log``,
``superblock`` …, named in the recovered image) and the first caller
outside ``repro/pm`` — and must match :data:`EXPECTED` exactly: one entry
per finding, each with its classification.  A new re-read, or one that
went away, fails the check until it is classified here.

What the line rule cannot see: ``FactTxn.settle_claims`` reads the counts
word its claim's persisted insert wrote.  That line was flushed by the
insert, so the read is no line re-read, but it breaks §5's other half —
a value the operation computed is never read back.
"""

import pathlib
import sys
from collections import Counter

import pytest

from repro.pm.device import CACHELINE as LINE
from repro.workloads import fleet, runner
from repro.workloads.datagen import DataGenerator
from repro.workloads.fio import Mode
from tests._ledger import READS, Ledger

sys.path.append(str(pathlib.Path(__file__).resolve().parents[2]
                    / "benchmarks"))
from e2e import workloads  # noqa: E402  (the benchmark's own set-up)
from e2e.trace import Tracer  # noqa: E402

SEED = 42
#: The tier-1 scale; the ``fuzz`` pass runs at 4x.
SCALE = 0.1
SHAPES = ("small_write", "large_write", "large_inline", "mixed_rw",
          "tenant_fleet")

#: (shape, region, caller) -> (re-reads, classification) at SCALE.  The
#: unclean mount every pass ends in re-reads nothing: it reads the
#: superblock, the journal header and each staging slab's header with
#: one request each.
EXPECTED = {}

#: The same at 4 x SCALE (the ``fuzz`` pass).
EXPECTED_FUZZ = {}


def rereads(requests) -> list:
    """The charged reads among one root's ``requests`` that re-read."""
    held, out = set(), []
    for r in requests:
        lines = range(r.addr // LINE, (r.end - 1) // LINE + 1)
        if r.kind in READS:
            if r.charge and lines and held.issuperset(lines):
                out.append(r)
            held.update(lines)
        elif r.kind == "clwb" or r.nt or r.persist:
            held.difference_update(lines)
        elif r.kind == "write":
            held.update(lines)
    return out


class _Handed(Exception):
    """``(fs, spec, runner keywords)`` as the benchmark hands them on."""


def benchmark_pass(shape: str, scale: float):
    """The filesystem, spec and runner keywords of ``shape``'s pass,
    stopped where its timed section would start the DES runner."""
    def hand(fs, spec, **kw):
        raise _Handed(fs, spec, kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "run_workload", hand)
        mp.setattr(runner, "prepopulate", lambda *a, **kw: None)
        mp.setattr(fleet, "run_fleet", hand)
        try:
            workloads.WORKLOADS[shape](workloads.PassSpec(
                seed=SEED, scale=scale, tracer=Tracer(enabled=False),
                t_start=0.0, check_invariants=False,
                calibrate=lambda: 0.0))
        except _Handed as handed:
            return handed.args
    raise AssertionError(f"{shape} never reached its DES runner")


def _daemon(fs, dd, step):
    """The dedup drive, run after each client call; ``final`` drains the
    rest, as the runner's daemon does once the clients are done."""
    tick = [fs.clock.now_ns + dd.interval_ms * runner.MS]

    def after(final=False):
        if dd.kind == "none" or (dd.kind == "delayed" and not final
                                 and fs.clock.now_ns < tick[0]):
            return
        budget = dd.batch if dd.kind == "delayed" and not final else -1
        while budget and step(fs.daemon.process_one):
            budget -= 1
        tick[0] = fs.clock.now_ns + dd.interval_ms * runner.MS
    return after


def _in_turn(clients, step, after):
    """One call of each client in turn until all are done.  A client is
    a generator that yields a call and is sent back its result."""
    live = [(client, None) for client in clients]
    while live:
        turn, live = live, []
        for client, result in turn:
            try:
                call = client.send(result)
            except StopIteration:
                continue
            live.append((client, step(call)))
            after()


def _prepopulate(fs, spec, step) -> list[int]:
    """``runner.prepopulate``'s calls; the files' inodes."""
    gens = [DataGenerator(spec.dup_ratio, seed=spec.seed, stream=t)
            for t in range(spec.threads)]
    inos = []
    for i in range(spec.nfiles):
        t = i % spec.threads
        inos.append(step(lambda: fs.create(f"/t{t}/f{i}")))
        step(lambda: fs.write(inos[i], 0, gens[t].file_data(spec.file_size),
                              cpu=t))
    return inos


def _job(fs, spec, step, after) -> dict:
    """``runner.run_workload``'s calls (``_writer`` per client)."""
    for t in range(spec.threads):
        step(lambda: fs.mkdir(f"/t{t}"))
    if spec.mode is Mode.READWRITE:
        inos = _prepopulate(fs, spec, step)
        after(final=True)
    chunk = spec.io_chunk or spec.file_size

    def client(t, gen):
        for i in range(t, spec.nfiles, spec.threads):
            if spec.mode is Mode.WRITE:
                ino = yield lambda: fs.create(f"/t{t}/f{i}")
            else:
                ino = inos[i]
            if spec.mode is Mode.READWRITE and t:  # client 0 overwrites
                yield lambda: fs.read(ino, 0, spec.file_size, cpu=t)
                continue
            data = gen.file_data(spec.file_size)
            for off in range(0, spec.file_size, chunk):
                yield lambda: fs.write(ino, off, data[off:off + chunk],
                                       cpu=t)

    _in_turn([client(t, DataGenerator(spec.dup_ratio, seed=spec.seed + 1,
                                      stream=t))
              for t in range(spec.threads)], step, after)
    return {f"/t{i % spec.threads}/f{i}": spec.file_size
            for i in range(spec.nfiles)}


def _fleet(fs, spec, step, after, weights) -> dict:
    """``fleet.run_fleet``'s calls (``_tenant_writer`` per client)."""
    files = {}

    def client(i, sub, nsubs, nfiles):
        name = spec.tenant_name(i)
        gen = DataGenerator(spec.dup_ratio, seed=spec.seed,
                            stream=100 + i * 16 + sub)
        for fidx in range(sub, nfiles, nsubs):
            data, path = gen.file_data(spec.file_size), f"/t/{name}/f{fidx}"
            ino = yield lambda: (fs.lookup(path) if fs.exists(path)
                                 else fs.create(path))
            yield lambda: fs.write(ino, 0, data, cpu=i % fs.cpus)
            files[path] = spec.file_size

    clients = []
    for i in range(spec.tenants):
        name = spec.tenant_name(i)
        step(lambda: fs.tenant_create(name, weight=weights.get(name, 1)))
        noisy = spec.noisy_tenant == i
        nsubs = max(1, spec.noisy_clients) if noisy else 1
        nfiles = spec.files_for(i) + (spec.noisy_burst_files if noisy else 0)
        clients += [client(i, sub, nsubs, nfiles) for sub in range(nsubs)]
    _in_turn(clients, step, after)
    return files


def census(shape: str, scale: float) -> Counter:
    """``(region kind, caller)`` -> re-reads of one pass of ``shape``."""
    fs, spec, kw = benchmark_pass(shape, scale)
    found = []
    with Ledger(fs.dev) as led:
        def step(call):
            start = len(led.requests)
            result = call()
            found.extend(rereads(led.requests[start:]))
            return result

        after = _daemon(fs, kw["dd"], step)
        if isinstance(spec, fleet.FleetSpec):
            files = _fleet(fs, spec, step, after, kw["weights"])
        else:
            files = _job(fs, spec, step, after)
        after(final=True)
        for path, size in files.items():
            step(lambda: fs.read(fs.lookup(path), 0, size))
        fs.dev.crash("discard")
        fs.dev.recover_view()
        fs = step(lambda: type(fs).mount(fs.dev, cpus=fs.cpus))
        for path, size in files.items():
            assert len(step(lambda: fs.read(fs.lookup(path), 0, size))) \
                == size
        out = Counter((led.region(r).split(":")[0], r.caller) for r in found)
    fs.dev.close()
    return out


def _expected(table, shape):
    return {key[1:]: count for key, (count, _why) in table.items()
            if key[0] == shape}


@pytest.mark.parametrize("shape", SHAPES)
def test_every_reread_is_classified(shape):
    assert dict(census(shape, SCALE)) == _expected(EXPECTED, shape)


@pytest.mark.fuzz
@pytest.mark.parametrize("shape", SHAPES)
def test_every_reread_is_classified_at_4x(shape):
    found = census(shape, 4 * SCALE)
    print(f"\n{shape}: {sum(found.values())} re-reads", *(
        f"  {region:<12} {caller:<32} {n}"
        for (region, caller), n in sorted(found.items())), sep="\n")
    assert dict(found) == _expected(EXPECTED_FUZZ, shape)


@pytest.mark.fuzz
def test_a_small_fact_rereads_nothing_within_a_node(monkeypatch):
    """On a 4 096-page device the FACT is a sixteenth of the benchmark's,
    so chains form: a node's repeated fingerprint is looked up once, and
    its commit takes the counts of a chain head a later walk read."""
    monkeypatch.setattr(workloads, "DEVICE_PAGES", 4096)
    assert dict(census("mixed_rw", 0.2)) == {}

