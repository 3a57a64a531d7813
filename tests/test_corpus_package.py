"""Tests for the package model (repro.corpus.package)."""

import pytest

from repro.corpus.package import BENIGN, MALWARE, Package, PackageFile, PackageMetadata


def make_package(label=BENIGN):
    metadata = PackageMetadata(name="demo", version="1.0.0", summary="demo pkg")
    return Package(
        name="demo",
        version="1.0.0",
        metadata=metadata,
        files=[
            PackageFile("setup.py", "from setuptools import setup\nsetup()\n"),
            PackageFile("demo/__init__.py", "x = 1\n# comment\n"),
        ],
        label=label,
    )


def test_identifier_combines_name_and_version():
    assert make_package().identifier == "demo==1.0.0"


def test_label_validation():
    with pytest.raises(ValueError):
        Package(name="x", version="1", metadata=PackageMetadata(name="x"), label="weird")


def test_is_malicious_flag():
    assert make_package(MALWARE).is_malicious
    assert not make_package(BENIGN).is_malicious


def test_source_files_filters_python():
    pkg = make_package()
    pkg.files.append(PackageFile("README.md", "# readme"))
    assert {f.path for f in pkg.source_files} == {"setup.py", "demo/__init__.py"}


def test_loc_ignores_comments():
    pkg = make_package()
    # setup.py has 2 code lines, __init__.py has 1 (comment excluded)
    assert pkg.loc == 3


def test_all_text_concatenates_files():
    pkg = make_package()
    assert "setuptools" in pkg.all_text
    assert "x = 1" in pkg.all_text


def test_signature_stable_and_content_sensitive():
    a, b = make_package(), make_package()
    assert a.signature == b.signature
    b.files[1] = PackageFile("demo/__init__.py", "x = 2\n")
    assert a.signature != b.signature


def test_file_lookup():
    pkg = make_package()
    assert pkg.file("setup.py") is not None
    assert pkg.file("missing.py") is None


def test_metadata_json_roundtrip():
    metadata = PackageMetadata(name="demo", version="2.0", summary="s",
                               dependencies=["requests"], keywords=["k"])
    restored = PackageMetadata.from_json(metadata.to_json())
    assert restored == metadata


def test_pkg_info_contains_core_fields():
    metadata = PackageMetadata(name="demo", version="2.0", summary="s", author="Ada",
                               dependencies=["requests"], classifiers=["License :: OSI Approved"])
    text = metadata.to_pkg_info()
    assert "Name: demo" in text
    assert "Version: 2.0" in text
    assert "Requires-Dist: requests" in text
    assert "Classifier: License :: OSI Approved" in text


def test_setup_py_embeds_extra_body_before_setup_call():
    metadata = PackageMetadata(name="demo", version="2.0")
    rendered = metadata.to_setup_py(extra_body="import os\nos.getcwd()")
    assert rendered.index("os.getcwd()") < rendered.index("setup(")
    assert "name='demo'" in rendered
