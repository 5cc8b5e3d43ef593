"""A job or drive mode that cannot mean what it says is refused when built.

With a negative ``io_chunk`` the writer's ``range(0, size, chunk)`` is
empty: no byte would reach the filesystem, yet ``bytes_moved`` and
``files_done`` would count every file.  The runner drives any ``DDMode``
kind but ``none`` and ``delayed`` as ``immediate``, so a misspelt kind
would run silently, and a ``delayed`` mode needs positive (n, m) however
it is built, not only through ``DDMode.delayed``.
"""

import pytest

from repro.core import Config, Variant, make_fs
from repro.workloads import DDMode, run_workload, small_file_job
from repro.workloads.fio import JobSpec


class TestIoChunk:
    def test_negative_chunk_is_refused(self):
        with pytest.raises(ValueError, match="io_chunk"):
            JobSpec(name="j", nfiles=4, file_size=8192, io_chunk=-4096)
        with pytest.raises(ValueError, match="io_chunk"):
            small_file_job(nfiles=4).with_(io_chunk=-1)

    @pytest.mark.parametrize("chunk", [0, 1024, 4096])
    def test_every_accepted_chunk_writes_what_it_reports(self, chunk):
        fs, dd = make_fs(Variant.BASELINE,
                         Config(device_pages=2048, max_inodes=64))
        spec = small_file_job(nfiles=6).with_(io_chunk=chunk)
        res = run_workload(fs, spec, dd=dd)
        assert res.bytes_moved == 6 * 4096
        assert sum(fs.stat(fs.lookup(f"/t0/f{i}")).size
                   for i in range(6)) == res.bytes_moved


class TestDDMode:
    @pytest.mark.parametrize("kind", ["delay", "Immediate", "inline", ""])
    def test_unknown_kind_is_refused(self, kind):
        with pytest.raises(ValueError, match="kind"):
            DDMode(kind)

    @pytest.mark.parametrize("n, m", [(0, 0), (0.0, 10), (5.0, 0),
                                      (-1.0, 3)])
    def test_delayed_needs_positive_n_and_m_however_built(self, n, m):
        with pytest.raises(ValueError, match="delayed"):
            DDMode("delayed", n, m)
        with pytest.raises(ValueError, match="delayed"):
            DDMode.delayed(n, m)

    def test_the_three_kinds_still_build(self):
        assert DDMode("none") == DDMode.none()
        assert DDMode("immediate") == DDMode.immediate()
        assert DDMode("delayed", 750.0, 20000) == DDMode.delayed(750.0,
                                                                 20000)
