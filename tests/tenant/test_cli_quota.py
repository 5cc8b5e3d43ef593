"""Quota-exceeded CLI UX: structured error, non-zero exit, no traceback."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.tenant


@pytest.fixture
def image(tmp_path):
    img = str(tmp_path / "disk.img")
    assert main(["mkfs", img, "--pages", "2048", "--inodes", "128"]) == 0
    return img


@pytest.fixture
def payload(tmp_path):
    f = tmp_path / "payload"
    f.write_bytes(b"\xaa" * (4 * 4096))
    return str(f)


class TestTenantLifecycle:
    def test_create_list_roundtrip(self, image, capsys):
        assert main(["tenant", "create", image, "alice",
                     "--quota-pages", "8", "--weight", "3"]) == 0
        capsys.readouterr()
        assert main(["tenant", "list", image, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.tenants/1"
        t = doc["tenants"]["alice"]
        assert t["quota_pages"] == 8 and t["weight"] == 3

    def test_duplicate_create_fails_cleanly(self, image, capsys):
        assert main(["tenant", "create", image, "alice"]) == 0
        capsys.readouterr()
        assert main(["tenant", "create", image, "alice"]) != 0
        err = capsys.readouterr().err
        assert "alice" in err and "Traceback" not in err


    @pytest.mark.parametrize("limit", ["--quota-pages=-1",
                                       "--quota-inodes=-1",
                                       "--weight=99999999999"])
    def test_out_of_range_limit_is_refused_and_changes_nothing(
            self, limit, image, capsys):
        """Each ended in a ``struct.error`` traceback out of the save."""
        import hashlib

        assert main(["tenant", "create", image, "alice",
                     "--quota-pages", "8"]) == 0
        before = hashlib.sha256(open(image, "rb").read()).digest()
        capsys.readouterr()
        for argv in (["tenant", "create", image, "bob", limit],
                     ["tenant", "quota", image, "alice", limit]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: tenant ") and "got " in err
            assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert hashlib.sha256(open(image, "rb").read()).digest() == before
        assert main(["tenant", "list", image, "--json"]) == 0
        tenants = json.loads(capsys.readouterr().out)["tenants"]
        assert list(tenants) == ["alice"]
        assert tenants["alice"]["quota_pages"] == 8


class TestQuotaExceededUX:
    def test_over_quota_put_is_enospc_style(self, image, payload, capsys):
        """The ISSUE acceptance: non-zero exit, a single structured line
        on stderr, and never a Python traceback."""
        assert main(["tenant", "create", image, "alice",
                     "--quota-pages", "2"]) == 0
        capsys.readouterr()
        rc = main(["put", image, "/t/alice/big", payload])
        out = capsys.readouterr()
        assert rc == 1
        lines = [ln for ln in out.err.splitlines() if ln]
        assert len(lines) == 1
        assert lines[0].startswith("quota exceeded:")
        assert "alice" in lines[0] and "data-page" in lines[0]
        assert "Traceback" not in out.err

    def test_inode_quota_exceeded_same_ux(self, image, payload, capsys):
        assert main(["tenant", "create", image, "bob",
                     "--quota-inodes", "2"]) == 0
        assert main(["put", image, "/t/bob/a", payload]) == 0
        capsys.readouterr()
        rc = main(["put", image, "/t/bob/b", payload])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("quota exceeded:")
        assert "inode" in err and "Traceback" not in err

    def test_quota_raise_unblocks(self, image, payload, capsys):
        assert main(["tenant", "create", image, "carol",
                     "--quota-pages", "2"]) == 0
        assert main(["put", image, "/t/carol/big", payload]) == 1
        assert main(["tenant", "quota", image, "carol",
                     "--quota-pages", "100"]) == 0
        assert main(["put", image, "/t/carol/big", payload]) == 0
        capsys.readouterr()
        assert main(["stats", image, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tenants"]["carol"]["used_pages"] == 4
