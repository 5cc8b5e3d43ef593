"""DeNova reproduction: offline deduplication for log-structured PM file
systems (Kwon et al., "DENOVA: Deduplication Extended NOVA File System",
IPDPS 2022).

Quickstart::

    from repro import Config, Variant, make_fs

    fs, dd = make_fs(Variant.IMMEDIATE, Config(device_pages=4096))
    ino = fs.create("/hello.txt")
    fs.write(ino, 0, b"persistent memory says hi" * 1000)
    fs.daemon.drain()                 # background dedup, driven manually
    print(fs.space_stats())

The packages are layered; DESIGN.md's *System inventory* lists them
bottom to top, and each imports only from its own layer and the ones
below.  :mod:`repro.backup` and :mod:`repro.repl` are imported here so
that the mount-recovery hooks they register on :class:`DeNovaFS` are in
place before any filesystem is mounted, whichever ``repro`` module a
program imports first.
"""

from repro.core import Config, TESTBED, Variant, make_device, make_fs
from repro.dedup import DeNovaFS, InlineDedupFS
# For the DeNovaFS hooks they register, backup's before repl's:
from repro import backup, repl  # noqa: F401
from repro.nova import NovaFS
from repro.pm import OPTANE_DCPM, PMDevice, SimClock
from repro.workloads import (
    DDMode,
    JobSpec,
    Mode,
    large_file_job,
    run_workload,
    small_file_job,
)

__version__ = "1.0.0"

__all__ = [
    "Config",
    "Variant",
    "make_fs",
    "make_device",
    "TESTBED",
    "NovaFS",
    "DeNovaFS",
    "InlineDedupFS",
    "PMDevice",
    "SimClock",
    "OPTANE_DCPM",
    "DDMode",
    "JobSpec",
    "Mode",
    "small_file_job",
    "large_file_job",
    "run_workload",
    "__version__",
]
