"""Package metadata extraction and auditing (paper Section III-A, Table II).

The paper lists three sources for a package's metadata -- the ``pkg-info``
file, the ``setup`` file and the registry ``egg-info`` / JSON API.  We parse
whichever is available and fall back to the in-memory metadata carried by the
synthetic package (the stand-in for the registry API).

``metadata_audit`` reproduces the four metadata checks of Table II: empty
information, release zero, typosquatting and suspicious dependencies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.corpus.naming import POPULAR_PACKAGES, is_similar_to_popular
from repro.corpus.package import Package, PackageMetadata

_PKG_INFO_FIELDS = {
    "Name": "name",
    "Version": "version",
    "Summary": "summary",
    "Home-page": "home_page",
    "Author": "author",
    "Author-email": "author_email",
    "License": "license",
}

_SETUP_KWARG_RE = re.compile(
    r"^\s*(name|version|description|author|author_email|url|license)\s*=\s*"
    r"(?P<quote>['\"])(?P<value>.*?)(?P=quote)\s*,?\s*$",
    re.MULTILINE,
)
_SETUP_FIELD_MAP = {
    "name": "name",
    "version": "version",
    "description": "summary",
    "author": "author",
    "author_email": "author_email",
    "url": "home_page",
    "license": "license",
}
_INSTALL_REQUIRES_RE = re.compile(r"install_requires\s*=\s*\[(?P<body>.*?)\]", re.DOTALL)
_STRING_RE = re.compile(r"['\"]([^'\"]+)['\"]")


def parse_pkg_info(text: str) -> PackageMetadata:
    """Parse a ``PKG-INFO`` / ``METADATA`` style document."""
    metadata = PackageMetadata(name="", version="")
    description_lines: list[str] = []
    in_body = False
    for line in text.splitlines():
        if in_body:
            description_lines.append(line)
            continue
        if not line.strip():
            in_body = True
            continue
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key in _PKG_INFO_FIELDS:
            setattr(metadata, _PKG_INFO_FIELDS[key], value)
        elif key == "Requires-Dist":
            metadata.dependencies.append(value)
        elif key == "Classifier":
            metadata.classifiers.append(value)
        elif key == "Keywords":
            metadata.keywords = [k.strip() for k in value.split(",") if k.strip()]
    if description_lines:
        metadata.description = "\n".join(description_lines).strip()
    return metadata


def parse_setup_py(text: str) -> PackageMetadata:
    """Extract metadata kwargs from a ``setup.py`` with regular expressions.

    The paper implements this step with the ``re`` library rather than by
    executing the setup script (which would run the very payload we are
    analysing); we do the same.
    """
    metadata = PackageMetadata(name="", version="")
    for found in _SETUP_KWARG_RE.finditer(text):
        field_name = _SETUP_FIELD_MAP[found.group(1)]
        setattr(metadata, field_name, found.group("value"))
    requires = _INSTALL_REQUIRES_RE.search(text)
    if requires:
        metadata.dependencies = _STRING_RE.findall(requires.group("body"))
    return metadata


def _merge(primary: PackageMetadata, fallback: PackageMetadata) -> PackageMetadata:
    """Fill empty fields of ``primary`` from ``fallback``."""
    for field_name in ("name", "version", "summary", "description", "author",
                       "author_email", "home_page", "license"):
        if not getattr(primary, field_name):
            setattr(primary, field_name, getattr(fallback, field_name))
    if not primary.dependencies:
        primary.dependencies = list(fallback.dependencies)
    if not primary.classifiers:
        primary.classifiers = list(fallback.classifiers)
    if not primary.keywords:
        primary.keywords = list(fallback.keywords)
    return primary


def extract_metadata(package: Package) -> PackageMetadata:
    """Extract metadata for a package using all three sources of Figure 1."""
    # start from genuinely empty fields so the merge below can fill them
    # (the dataclass default of "0.0.0" would otherwise shadow real versions)
    extracted = PackageMetadata(name="", version="")
    pkg_info = package.file("PKG-INFO") or package.file("METADATA")
    if pkg_info is not None:
        extracted = _merge(extracted, parse_pkg_info(pkg_info.content))
    setup_file = package.file("setup.py")
    if setup_file is not None:
        extracted = _merge(extracted, parse_setup_py(setup_file.content))
    # registry view: the in-memory metadata plays the role of the API response
    extracted = _merge(extracted, package.metadata)
    if not extracted.name:
        extracted.name = package.name
    if not extracted.version:
        extracted.version = package.version
    return extracted


# -- auditing (Table II, metadata half) -----------------------------------------

_SUSPICIOUS_DEPENDENCY_HINTS = (
    "obfusc", "crypt", "keylog", "cookie", "token", "stealer", "grabber",
    "webhook", "pyautogui", "pynput",
)


@dataclass
class MetadataAudit:
    """Findings of the metadata audit for one package."""

    empty_information: bool = False
    release_zero: bool = False
    typosquatting: bool = False
    suspicious_dependencies: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def suspicious(self) -> bool:
        return (self.empty_information or self.release_zero or self.typosquatting
                or bool(self.suspicious_dependencies))

    def findings(self) -> list[str]:
        found = []
        if self.empty_information:
            found.append("empty description / missing author information")
        if self.release_zero:
            found.append("release version looks like a placeholder (0.0 / 0.0.0)")
        if self.typosquatting:
            found.append("package name is confusingly similar to a popular package")
        for dep in self.suspicious_dependencies:
            found.append(f"suspicious dependency: {dep}")
        found.extend(self.notes)
        return found


def metadata_audit(metadata: PackageMetadata) -> MetadataAudit:
    """Run the four metadata checks of Table II."""
    audit = MetadataAudit()
    if not metadata.description.strip() and not metadata.summary.strip():
        audit.empty_information = True
    if not metadata.author.strip() and not metadata.author_email.strip():
        audit.empty_information = True
        audit.notes.append("author fields are empty")
    version = metadata.version.strip()
    if version in ("0.0", "0.0.0", "0", "0.0.0.0") or version.startswith("0.0."):
        audit.release_zero = True
    if metadata.name and is_similar_to_popular(metadata.name):
        audit.typosquatting = True
    known = {p.lower() for p in POPULAR_PACKAGES}
    for dependency in metadata.dependencies:
        dep_name = re.split(r"[<>=!\[; ]", dependency, 1)[0].strip().lower()
        if not dep_name:
            continue
        if dep_name in known:
            continue
        if any(hint in dep_name for hint in _SUSPICIOUS_DEPENDENCY_HINTS) or is_similar_to_popular(dep_name):
            audit.suspicious_dependencies.append(dependency)
    return audit
