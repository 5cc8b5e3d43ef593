"""The CLI's contract, as one table-driven test.

For every :class:`repro.cli.Command` × an image of each kind × one hostile
value at a time drawn from the command's *declared* parameters, ``main``

(a) returns 0, 1 or 3, or leaves through ``SystemExit(2)`` — never through
    another exception, and never by not returning;
(b) when it returns 1, says why: exactly one stderr line starting
    ``error:`` or ``quota exceeded:``, or one of the verdicts a check
    prints when it comes out negative — and ``Traceback`` nowhere;
(c) after an ``error:`` line, has left every image file byte for byte as
    it found it.

The rows come from ``COMMANDS``: a subcommand added there is covered here
the day it is added (``VALID`` then needs a value for each new positional).
All ~1 000 of them take 18 s run alone and 19 s inside the full tier-1
run (Python 3.11, 2-vCPU Xeon); the whole matrix is tier-1.
"""

import shutil
import signal

import pytest

from repro.cli import COMMANDS, main

#: A valid, tiny value for each parameter, by ``dest``; ``(leaf, dest)``
#: where two commands use one name for different things.  Everything not
#: named here keeps its default.
VALID = {
    "path": "/f", "src": "/f", "dst": "/g", "source": "{src}",
    "dest": "{out}", "rules": "{rules}", "snapshot": "s1",
    "stream": "{s2_stream}", "replica": "{peer}", "spool": "{spool}",
    "ops": "5", "seq_ops": "5", "files": "2",
    ("put", "path"): "/p", ("send", "stream"): "{out}",
    ("fanin", "source"): "{donor}:s2",
    ("snap", "action"): "create", ("snap", "name"): "s9",
    ("create", "name"): "t9", ("quota", "name"): "t1",
    ("fuzz", "budget"): "2",
    ("ls", "path"): None, ("tree", "path"): None, ("du", "path"): None,
}

#: A second baseline for the commands that are two commands: every row
#: is run from it too.
ALSO = {"workload": {"tenants": "2"},
        "snap": {"action": "delete", "name": "s1"}}

#: Rows refused — exit 1 — on every image, not merely survived: ``snap
#: delete`` with an empty name once deleted every snapshot and exited 0.
REFUSED = {("snap", "delete", ("name", ""))}

#: The two parameters that name a host *directory* the command creates
#: files in: ``/`` there would have the suite write into the root directory.
WRITES_INTO = {"spool", "corpus"}

KINDS = ("healthy", "nova", "full", "missing")

#: What a negative check prints (stdout or stderr) beside its exit 1.
VERDICTS = ("FSCK FAILED:", "DEEP VERIFY FAILED:", "stream: BAD", "MISMATCH",
            "VIOLATED", "FAILURES:", "ERROR:", "pending")


def _dest(names) -> str:
    long = [n for n in names if n.startswith("--")]
    return (long[0] if long else names[0]).lstrip("-").replace("-", "_")


def _hostile(names, kw):
    """The hostile values of one declared parameter."""
    if kw.get("type") is float:
        return ["0", "-1", "7.0"]
    if "type" in kw:            # int, or an int with a floor
        return ["0", "-1"]
    if "choices" in kw or "action" in kw:
        return []
    root = [] if _dest(names) in WRITES_INTO else ["/"]
    return ["", *root, "{missing}", "{binary}"]


def _argv(cmd, kind, also, hostile=None):
    """``cmd``'s baseline argv (``also``: its second one) on a ``kind``
    image, ``hostile`` = ``(dest, value)`` substituted for that one
    parameter."""
    argv = list(cmd.path) + (["{" + kind + "}"] if cmd.image else [])
    for names, kw in cmd.params:
        dest = _dest(names)
        value = VALID.get((cmd.path[-1], dest), VALID.get(dest))
        value = also.get(dest, value)
        if hostile and hostile[0] == dest:
            value = hostile[1]
        if value is None:
            continue
        argv.append(value if not names[0].startswith("-")
                    else f"{names[-1]}={value}")
    return argv


def _rows():
    for cmd in COMMANDS:
        leaf = cmd.path[-1]
        for also in [{}] + ([ALSO[leaf]] if leaf in ALSO else []):
            for kind in (KINDS if cmd.image else KINDS[:1]):
                name = " ".join([kind, *cmd.path, *also.values()])
                yield pytest.param(cmd, kind, also, None, id=name)
                for names, kw in cmd.params:
                    for value in _hostile(names, kw):
                        yield pytest.param(
                            cmd, kind, also, (_dest(names), value),
                            id=f"{name} {names[-1]}="
                               f"{value.strip('{}') or repr(value)}")


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The files every row starts from, built once: path by name, and the
    bytes to put back after a row changed them."""
    d = tmp_path_factory.mktemp("contract")
    names = {n: str(d / f) for n, f in {
        "healthy": "healthy.img", "donor": "donor.img", "peer": "peer.img",
        "nova": "nova.img", "full": "full.img", "missing": "nope.img",
        "src": "src.bin", "out": "out.bin", "rules": "rules.json",
        "binary": "binary.bin", "s2_stream": "s2.bkp",
        "spool": "spool"}.items()}
    (d / "src.bin").write_bytes(bytes(range(256)) * 48)
    (d / "binary.bin").write_bytes(bytes(range(0xA8, 0xA8 + 64)))
    (d / "rules.json").write_text('{"rules": [{"name": "g", "kind": "gauge",'
                                  ' "metric": "fs.writes_total", "min": 0}]}')

    def run(line):
        assert main(line.format(**names).split()) == 0, line

    for img in ("healthy", "donor", "peer"):
        run("mkfs {%s} --pages 512 --inodes 64" % img)
    for img, snap in (("healthy", "s1"), ("donor", "s2")):
        run("put {%s} /f {src}" % img)
        run("tenant create {%s} t1" % img)
        run("snap {%s} create %s" % (img, snap))
    run("backup send {donor} s2 {s2_stream}")
    run("mkfs {nova} --variant nova --pages 256 --inodes 16")
    run("put {nova} /f {src}")
    run("mkfs {full} --pages 256 --inodes 16")
    step, n = 64 * 1024, 0
    while step >= 4096:     # ballast until not even one page fits
        (d / "ballast").write_bytes(bytes([n]) * step)
        if main(["put", names["full"], f"/b{n}", str(d / "ballast")]):
            step //= 4
        n += 1
    (d / "ballast").unlink()
    pristine = {p.name: p.read_bytes() for p in d.iterdir()}
    return d, names, pristine


class Hang(BaseException):
    """The alarm went off: ``main`` did not return in 10 s."""


def _alarm(signum, frame):
    raise Hang


@pytest.mark.parametrize("cmd,kind,also,hostile", _rows())
def test_contract(cmd, kind, also, hostile, world, capsys, monkeypatch):
    d, names, pristine = world
    monkeypatch.chdir(d)
    argv = [a.format(**names) for a in _argv(cmd, kind, also, hostile)]
    capsys.readouterr()
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        try:
            rc = main(argv)
        except SystemExit as exit_:
            rc = exit_.code
            assert rc == 2, argv
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    finally:
        # What the row changed — and the next row starts from the same files.
        changed = set()
        for p in d.iterdir():
            if p.name not in pristine:
                changed.add(p.name)
                p.unlink() if p.is_file() else shutil.rmtree(p)
        for name, data in pristine.items():
            if not (d / name).exists() or (d / name).read_bytes() != data:
                changed.add(name)
                (d / name).write_bytes(data)
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in out + err, (argv, err)
    if rc == 1:
        said = [ln for ln in err.splitlines()
                if ln.startswith(("error:", "quota exceeded:"))]
        assert (len(said) == 1 and len(err.splitlines()) == 1) \
            or any(v in out + err for v in VERDICTS), (argv, out, err)
        if said:
            assert not [n for n in changed if n.endswith(".img")], (argv, err)
    if hostile is None and kind == "healthy":
        assert rc == 0, (argv, out, err)    # the baseline really is valid
    if (*cmd.path, also.get("action"), hostile) in REFUSED:
        assert rc == 1, (argv, out, err)
