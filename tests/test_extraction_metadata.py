"""Tests for metadata extraction and auditing (paper Section III-A / Table II)."""

from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.extraction.metadata import (
    extract_metadata,
    metadata_audit,
    parse_pkg_info,
    parse_setup_py,
)

PKG_INFO = """Metadata-Version: 2.1
Name: demo
Version: 3.1.4
Summary: a demo package
Home-page: https://example.org/demo
Author: Ada Lovelace
Author-email: ada@example.org
License: MIT
Classifier: Programming Language :: Python :: 3
Requires-Dist: requests

A longer description
spanning two lines.
"""

SETUP_PY = """from setuptools import setup
setup(
    name='demo',
    version='3.1.4',
    description='a demo package',
    author='Ada Lovelace',
    url='https://example.org/demo',
    license='MIT',
    install_requires=['requests', 'click'],
)
"""


def test_parse_pkg_info_fields():
    metadata = parse_pkg_info(PKG_INFO)
    assert metadata.name == "demo"
    assert metadata.version == "3.1.4"
    assert metadata.author == "Ada Lovelace"
    assert metadata.dependencies == ["requests"]
    assert "longer description" in metadata.description


def test_parse_setup_py_fields():
    metadata = parse_setup_py(SETUP_PY)
    assert metadata.name == "demo"
    assert metadata.version == "3.1.4"
    assert metadata.summary == "a demo package"
    assert metadata.dependencies == ["requests", "click"]


def test_extract_metadata_prefers_real_version_over_default():
    pkg = Package(
        name="demo", version="3.1.4",
        metadata=PackageMetadata(name="demo", version="3.1.4"),
        files=[PackageFile("PKG-INFO", PKG_INFO), PackageFile("setup.py", SETUP_PY)],
    )
    extracted = extract_metadata(pkg)
    assert extracted.version == "3.1.4"
    assert extracted.name == "demo"


def test_extract_metadata_falls_back_to_package_identity():
    pkg = Package(name="bare", version="9.9.9", metadata=PackageMetadata(name="", version=""),
                  files=[])
    extracted = extract_metadata(pkg)
    assert extracted.name == "bare"
    assert extracted.version == "9.9.9"


def test_audit_flags_empty_information():
    audit = metadata_audit(PackageMetadata(name="demo", version="1.0", summary="", description=""))
    assert audit.empty_information
    assert audit.suspicious


def test_audit_flags_release_zero():
    audit = metadata_audit(PackageMetadata(name="demo", version="0.0.0", summary="x",
                                           author="a", author_email="a@b.c"))
    assert audit.release_zero


def test_audit_flags_typosquatting():
    audit = metadata_audit(PackageMetadata(name="reqests", version="1.0", summary="x",
                                           author="a", author_email="a@b.c", description="y"))
    assert audit.typosquatting


def test_audit_flags_suspicious_dependencies():
    audit = metadata_audit(PackageMetadata(
        name="cleanpkg", version="1.0", summary="x", description="y",
        author="a", author_email="a@b.c",
        dependencies=["browser-cookie3", "requests"],
    ))
    assert audit.suspicious_dependencies == ["browser-cookie3"]


def test_audit_clean_metadata_not_suspicious():
    audit = metadata_audit(PackageMetadata(
        name="cleanpkg", version="2.4.1", summary="A useful library", description="Long docs",
        author="Ada", author_email="ada@example.org", dependencies=["requests", "numpy"],
    ))
    assert not audit.suspicious
    assert audit.findings() == []


def test_benign_corpus_metadata_mostly_clean(benign_packages):
    flagged = sum(metadata_audit(extract_metadata(pkg)).suspicious for pkg in benign_packages)
    assert flagged <= len(benign_packages) // 2
