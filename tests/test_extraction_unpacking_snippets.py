"""Tests for unpacking and code segmentation."""

import pytest

from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.extraction.snippets import split_segments
from repro.extraction.unpacking import load_package_from_directory, write_package_to_directory


def _demo_package():
    return Package(
        name="demo", version="1.2.3",
        metadata=PackageMetadata(name="demo", version="1.2.3"),
        files=[
            PackageFile("setup.py", "from setuptools import setup\nsetup()\n"),
            PackageFile("demo/__init__.py", "VALUE = 42\n"),
            PackageFile("PKG-INFO", "Name: demo\nVersion: 1.2.3\n"),
        ],
    )


def test_write_and_load_package_roundtrip(tmp_path):
    pkg = _demo_package()
    root = write_package_to_directory(pkg, tmp_path)
    assert root.name == "demo-1.2.3"
    loaded = load_package_from_directory(root)
    assert loaded.name == "demo"
    assert loaded.version == "1.2.3"
    assert {f.path for f in loaded.files} >= {"setup.py", "demo/__init__.py", "PKG-INFO"}


def test_load_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_package_from_directory(tmp_path / "nope")


# -- snippets ---------------------------------------------------------------------

def test_split_segments_respects_length_bound():
    text = "line\n" * 500
    segments = split_segments(text, 512)
    assert all(len(segment) <= 512 + 121 for segment in segments)
    assert "".join(segments) == text


def test_split_segments_rejects_bad_length():
    with pytest.raises(ValueError):
        split_segments("abc", 0)


def test_split_segments_empty_text():
    assert split_segments("", 512) == []
