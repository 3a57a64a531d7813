"""Tests for the consolidated atomic-write helpers (`repro.utils.atomic`)."""

from __future__ import annotations

import os

import pytest

from repro.utils.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_dir,
)


class TestAtomicWriteBytes:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "data.bin"
        atomic_write_bytes(target, b"\x00\x01payload")
        assert target.read_bytes() == b"\x00\x01payload"

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "data.bin"
        target.write_bytes(b"old")
        atomic_write_bytes(target, b"new contents")
        assert target.read_bytes() == b"new contents"

    def test_leaves_no_scratch_files(self, tmp_path):
        target = tmp_path / "data.bin"
        atomic_write_bytes(target, b"x" * 1024)
        atomic_write_bytes(target, b"y" * 1024)
        assert [p.name for p in tmp_path.iterdir()] == ["data.bin"]

    def test_non_durable_still_atomic(self, tmp_path):
        target = tmp_path / "cache.json"
        atomic_write_bytes(target, b"entry", durable=False)
        assert target.read_bytes() == b"entry"
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_failed_write_preserves_existing_target(self, tmp_path, monkeypatch):
        target = tmp_path / "data.bin"
        atomic_write_bytes(target, b"survivor")

        real_replace = os.replace

        def failing_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"doomed")
        monkeypatch.setattr(os, "replace", real_replace)
        # the old contents were never touched: rename is the commit point
        assert target.read_bytes() == b"survivor"


class TestAtomicWriteText:
    def test_round_trips_text(self, tmp_path):
        target = tmp_path / "note.txt"
        atomic_write_text(target, "héllo wörld\n")
        assert target.read_text(encoding="utf-8") == "héllo wörld\n"

    def test_respects_encoding(self, tmp_path):
        target = tmp_path / "latin.txt"
        atomic_write_text(target, "café", encoding="latin-1")
        assert target.read_bytes() == b"caf\xe9"


class TestDurabilityPlumbing:
    def test_fsync_dir_returns_true_on_real_directory(self, tmp_path):
        assert fsync_dir(tmp_path) is True

    def test_fsync_dir_tolerates_missing_directory(self, tmp_path):
        assert fsync_dir(tmp_path / "nope") is False

    def test_durable_write_fsyncs_file_before_rename(self, tmp_path, monkeypatch):
        order: list[str] = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            order.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            order.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        atomic_write_bytes(tmp_path / "f.bin", b"data")
        # file contents must be on disk before the rename publishes them,
        # and the directory entry must be synced after
        assert order == ["fsync", "replace", "fsync"]

    def test_non_durable_write_skips_fsync(self, tmp_path, monkeypatch):
        calls: list[int] = []
        real_fsync = os.fsync

        def spy_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        atomic_write_bytes(tmp_path / "f.bin", b"data", durable=False)
        assert calls == []
