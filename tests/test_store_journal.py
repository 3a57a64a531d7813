"""Write-ahead journal tests: framing, rotation, replay, torn tails and
mid-stream corruption (`repro.store.journal`)."""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.store.journal import (
    SEGMENT_MAGIC,
    Journal,
    JournalCorruption,
    scan_segment,
)

_FRAME = struct.Struct(">II")


def _journal(tmp_path, **kwargs) -> Journal:
    kwargs.setdefault("durable", False)  # tests don't need real fsyncs
    return Journal(tmp_path / "journal", **kwargs)


class TestAppendReplay:
    def test_epochs_are_monotonic_from_one(self, tmp_path):
        with _journal(tmp_path) as journal:
            assert journal.append("publish", {"version": 1}) == 1
            assert journal.append("activate", {"version": 1}) == 2
            assert journal.append("retire", {"version": 1}) == 3

    def test_replay_round_trips_records(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1, "blob": "abc"})
            journal.append("job-submitted", {"id": "scan-1", "tenant": "acme"})
        with _journal(tmp_path) as journal:
            records = list(journal.replay())
        assert [r.type for r in records] == ["publish", "job-submitted"]
        assert records[0].data == {"version": 1, "blob": "abc"}
        assert records[1].data["tenant"] == "acme"
        assert records[0].epoch == 1 and records[1].epoch == 2

    def test_replay_after_skips_older_epochs(self, tmp_path):
        with _journal(tmp_path) as journal:
            for version in range(1, 6):
                journal.append("publish", {"version": version})
            tail = [r.data["version"] for r in journal.replay(after=3)]
        assert tail == [4, 5]

    def test_unknown_record_type_is_rejected(self, tmp_path):
        with _journal(tmp_path) as journal:
            with pytest.raises(ValueError):
                journal.append("definitely-not-a-type", {})

    def test_records_by_type_filters(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
            journal.append("shard-complete", {"label": "a"})
            journal.append("publish", {"version": 2})
            publishes = journal.records_by_type("publish")
        assert [r.data["version"] for r in publishes] == [1, 2]

    def test_reopen_continues_epoch_sequence(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
            journal.append("publish", {"version": 2})
        with _journal(tmp_path) as journal:
            assert journal.last_epoch == 2
            assert journal.append("publish", {"version": 3}) == 3


class TestRotation:
    def test_rotate_starts_a_new_segment(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
            journal.rotate()
            journal.append("publish", {"version": 2})
            segments = journal.segments()
            assert len(segments) == 2
            replayed = [r.data["version"] for r in journal.replay()]
        assert replayed == [1, 2]

    def test_size_triggered_rotation(self, tmp_path):
        with _journal(tmp_path, segment_max_bytes=256) as journal:
            for version in range(1, 20):
                journal.append("publish", {"version": version, "pad": "x" * 64})
            assert len(journal.segments()) > 1
            replayed = [r.data["version"] for r in journal.replay()]
        assert replayed == list(range(1, 20))

    def test_drop_segments_through_keeps_newer_records(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
            journal.append("publish", {"version": 2})
            journal.rotate()
            journal.append("publish", {"version": 3})
            dropped = journal.drop_segments_through(2)
            assert len(dropped) == 1
            assert [r.data["version"] for r in journal.replay()] == [3]

    def test_drop_never_removes_segment_with_newer_records(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
            journal.append("publish", {"version": 2})  # same segment as epoch 1
            dropped = journal.drop_segments_through(1)
            assert dropped == []
            assert [r.data["version"] for r in journal.replay()] == [1, 2]


class TestTornTail:
    def _segment(self, tmp_path):
        segments = sorted((tmp_path / "journal").glob("segment-*.wal"))
        assert segments
        return segments[-1]

    def test_half_written_frame_is_truncated_on_reopen(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
        path = self._segment(tmp_path)
        intact = path.read_bytes()
        payload = json.dumps({"epoch": 2, "type": "publish", "ts": 0.0,
                              "data": {"version": 2}}).encode()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        path.write_bytes(intact + frame[: len(frame) // 2])  # torn mid-frame

        with _journal(tmp_path) as journal:
            assert journal.truncated_bytes > 0
            assert [r.data["version"] for r in journal.replay()] == [1]
            # the torn bytes are gone from disk, not just skipped
            assert path.read_bytes() == intact
            # appends continue cleanly where the intact prefix ended
            assert journal.append("publish", {"version": 2}) == 2

    def test_torn_header_only(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
        path = self._segment(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")  # 2 of 8 header bytes
        scan = scan_segment(path)
        assert not scan.corrupt
        assert scan.torn_bytes == 2
        assert [r.data["version"] for r in scan.records] == [1]

    def test_bad_checksum_at_exact_tail_counts_as_torn(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
        path = self._segment(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte of the final frame
        path.write_bytes(bytes(blob))
        scan = scan_segment(path)
        assert not scan.corrupt
        assert scan.torn_bytes > 0
        assert scan.records == []


class TestSealedSegments:
    """Only the last segment takes appends: damage at the end of a sealed
    segment is corruption, never a torn tail to drop in silence."""

    def _damage_sealed(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
            sealed = journal.rotate()
            journal.append("publish", {"version": 2})
        blob = bytearray(sealed.read_bytes())
        blob[-1] ^= 0xFF  # a payload byte of the sealed segment's only frame
        sealed.write_bytes(bytes(blob))
        return sealed

    def test_torn_bytes_in_a_sealed_segment_are_corruption(self, tmp_path):
        from repro.store.journal import scan_segments

        sealed = self._damage_sealed(tmp_path)
        assert scan_segment(sealed).torn_bytes  # alone it reads as torn
        first, last = scan_segments(sorted(sealed.parent.glob("segment-*.wal")))
        assert first.path == sealed and first.corrupt
        assert "sealed segment" in first.error
        assert not last.corrupt and not last.torn_bytes

    def test_replay_raises(self, tmp_path):
        sealed = self._damage_sealed(tmp_path)
        with _journal(tmp_path) as journal:
            with pytest.raises(JournalCorruption, match=sealed.name):
                list(journal.replay())

    def test_compaction_stops_there(self, tmp_path):
        sealed = self._damage_sealed(tmp_path)
        with _journal(tmp_path) as journal:
            assert journal.drop_segments_through(99) == []
        assert sealed.exists()


class TestCorruption:
    def _segment(self, tmp_path):
        return sorted((tmp_path / "journal").glob("segment-*.wal"))[-1]

    def test_mid_stream_bitflip_raises_on_replay(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
            journal.append("publish", {"version": 2})
        path = self._segment(tmp_path)
        blob = bytearray(path.read_bytes())
        # corrupt the *first* frame's payload: a later intact frame follows,
        # so this cannot be a torn tail
        blob[len(SEGMENT_MAGIC) + _FRAME.size + 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        scan = scan_segment(path)
        assert scan.corrupt
        # attaching to a corrupt tail refuses loudly instead of appending
        # past damage (open_store reports it; fsck is the operator's tool)
        with pytest.raises(JournalCorruption):
            _journal(tmp_path)

    def test_bad_magic_marks_segment_corrupt(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
        path = self._segment(tmp_path)
        path.write_bytes(b"NOPE!\n" + path.read_bytes()[len(SEGMENT_MAGIC):])
        scan = scan_segment(path)
        assert scan.corrupt
        assert "magic" in scan.error

    def test_absurd_length_prefix_is_corruption_not_allocation(self, tmp_path):
        with _journal(tmp_path) as journal:
            journal.append("publish", {"version": 1})
        path = self._segment(tmp_path)
        bogus = _FRAME.pack(2**31, 0)  # claims a 2 GiB frame
        path.write_bytes(path.read_bytes() + bogus + b"tiny")
        scan = scan_segment(path)
        assert scan.corrupt
        assert "claims" in scan.error
