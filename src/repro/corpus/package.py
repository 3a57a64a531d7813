"""In-memory model of an OSS software package.

A :class:`Package` bundles the pieces RuleLLM consumes: source files, the
metadata a registry would expose (``PKG-INFO`` / ``setup.py`` / ``egg-info``,
see paper Figure 1) and the ground-truth labels the evaluation needs
(malicious or benign, malware family, injected behaviours).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.utils.hashing import content_signature
from repro.utils.text import count_loc

MALWARE = "malware"
BENIGN = "benign"


@dataclass(frozen=True)
class PackageFile:
    """A single file inside a package."""

    path: str
    content: str

    @property
    def is_python(self) -> bool:
        return self.path.endswith(".py")

    @property
    def is_javascript(self) -> bool:
        return self.path.endswith(".js")

    @property
    def is_source(self) -> bool:
        return self.is_python or self.is_javascript

    @property
    def loc(self) -> int:
        return count_loc(self.content)


@dataclass
class PackageMetadata:
    """Registry-style metadata for a package (paper Section III-A).

    The paper extracts this from three places -- the ``pkg-info`` file, the
    ``setup`` file and the registry ``egg-info`` / JSON API -- and feeds the
    JSON form to the LLM as one *basic unit*.
    """

    name: str
    version: str = "0.0.0"
    summary: str = ""
    description: str = ""
    author: str = ""
    author_email: str = ""
    home_page: str = ""
    license: str = ""
    keywords: list[str] = field(default_factory=list)
    classifiers: list[str] = field(default_factory=list)
    dependencies: list[str] = field(default_factory=list)

    # -- serialisation -----------------------------------------------------
    def to_json(self) -> str:
        """Render the metadata as the JSON document handed to the LLM."""
        return json.dumps(
            {
                "name": self.name,
                "version": self.version,
                "summary": self.summary,
                "description": self.description,
                "author": self.author,
                "author_email": self.author_email,
                "home_page": self.home_page,
                "license": self.license,
                "keywords": list(self.keywords),
                "classifiers": list(self.classifiers),
                "dependencies": list(self.dependencies),
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PackageMetadata":
        data = json.loads(text)
        return cls(
            name=data.get("name", ""),
            version=data.get("version", "0.0.0"),
            summary=data.get("summary", ""),
            description=data.get("description", ""),
            author=data.get("author", ""),
            author_email=data.get("author_email", ""),
            home_page=data.get("home_page", ""),
            license=data.get("license", ""),
            keywords=list(data.get("keywords", [])),
            classifiers=list(data.get("classifiers", [])),
            dependencies=list(data.get("dependencies", [])),
        )

    def to_pkg_info(self) -> str:
        """Render a ``PKG-INFO`` style metadata file."""
        lines = [
            "Metadata-Version: 2.1",
            f"Name: {self.name}",
            f"Version: {self.version}",
            f"Summary: {self.summary}",
            f"Home-page: {self.home_page}",
            f"Author: {self.author}",
            f"Author-email: {self.author_email}",
            f"License: {self.license}",
        ]
        for classifier in self.classifiers:
            lines.append(f"Classifier: {classifier}")
        for dep in self.dependencies:
            lines.append(f"Requires-Dist: {dep}")
        if self.keywords:
            lines.append("Keywords: " + ",".join(self.keywords))
        lines.append("")
        lines.append(self.description)
        return "\n".join(lines) + "\n"

    def to_setup_py(self, extra_body: str = "") -> str:
        """Render a ``setup.py`` that declares this metadata.

        ``extra_body`` is code injected *before* the ``setup()`` call; the
        malware generator uses it for install-time payloads (a classic
        supply-chain attack vector the paper's "Setup Code" category covers).
        """
        deps = ", ".join(repr(d) for d in self.dependencies)
        body = extra_body.rstrip()
        if body:
            body += "\n\n"
        return (
            "from setuptools import setup, find_packages\n\n"
            + body
            + "setup(\n"
            + f"    name={self.name!r},\n"
            + f"    version={self.version!r},\n"
            + f"    description={self.summary!r},\n"
            + f"    long_description={self.description!r},\n"
            + f"    author={self.author!r},\n"
            + f"    author_email={self.author_email!r},\n"
            + f"    url={self.home_page!r},\n"
            + f"    license={self.license!r},\n"
            + f"    packages=find_packages(),\n"
            + f"    install_requires=[{deps}],\n"
            + ")\n"
        )


@dataclass
class Package:
    """A software package with ground-truth labels for evaluation."""

    name: str
    version: str
    metadata: PackageMetadata
    files: list[PackageFile] = field(default_factory=list)
    label: str = BENIGN
    ecosystem: str = "pypi"
    family: Optional[str] = None
    behaviors: list[str] = field(default_factory=list)
    obfuscated: bool = False

    def __post_init__(self) -> None:
        if self.label not in (MALWARE, BENIGN):
            raise ValueError(f"label must be {MALWARE!r} or {BENIGN!r}, got {self.label!r}")

    # -- identity ----------------------------------------------------------
    @property
    def identifier(self) -> str:
        """Registry identity: ``name==version``."""
        return f"{self.name}=={self.version}"

    @property
    def is_malicious(self) -> bool:
        return self.label == MALWARE

    @property
    def signature(self) -> str:
        """Content signature used for deduplication (order-insensitive)."""
        return content_signature(f.content for f in self.files)

    # -- file access ---------------------------------------------------------
    @property
    def source_files(self) -> list[PackageFile]:
        return [f for f in self.files if f.is_source]

    def file(self, path: str) -> Optional[PackageFile]:
        for f in self.files:
            if f.path == path:
                return f
        return None

    # -- aggregate views -----------------------------------------------------
    @property
    def all_text(self) -> str:
        """Concatenation of every file's content (what YARA scans)."""
        return "\n".join(f.content for f in self.files)

    @property
    def source_text(self) -> str:
        return "\n".join(f.content for f in self.source_files)

    @property
    def loc(self) -> int:
        """Non-blank, non-comment source lines across all source files."""
        return sum(f.loc for f in self.source_files)
