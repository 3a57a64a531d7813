"""Synthetic legitimate-package generator.

Models the paper's 500 "most popular PyPI packages" slice (Table VI): real
library shapes -- several modules of substantive code averaging ~3,052 LoC,
complete and consistent metadata, plausible dependencies.  A controlled
fraction of the code legitimately uses APIs that naive rules consider
suspicious (``subprocess``, ``os.environ``, ``requests``, ``base64``, file
removal), which is what gives overly broad rules their false positives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.fillers import render_module, render_vendored_module
from repro.corpus.naming import BENIGN_AUTHORS, POPULAR_PACKAGES, random_project_name
from repro.corpus.package import BENIGN, Package, PackageFile, PackageMetadata
from repro.utils.seeding import DeterministicRandom
from repro.utils.text import safe_identifier

_MODULE_NAMES = (
    "core", "utils", "helpers", "models", "client", "session", "parser",
    "config", "exceptions", "compat", "adapters", "structures", "auth",
    "serializers", "validators", "backends", "cache", "pipeline",
)

_SUMMARY_TEMPLATES = (
    "A {adj} {noun} library for Python.",
    "{adj} {noun} toolkit with a clean, typed API.",
    "Fast and friendly {noun} handling for modern Python.",
    "The missing {noun} layer for your application.",
)
_ADJECTIVES = ("robust", "lightweight", "composable", "production-ready", "ergonomic", "minimal")
_NOUNS = ("HTTP", "serialization", "configuration", "caching", "validation", "data-access",
          "task-queue", "templating", "retry", "logging")

_CLASSIFIERS = (
    "Development Status :: 5 - Production/Stable",
    "Intended Audience :: Developers",
    "License :: OSI Approved :: MIT License",
    "Programming Language :: Python :: 3",
    "Programming Language :: Python :: 3.10",
    "Programming Language :: Python :: 3.11",
    "Operating System :: OS Independent",
    "Topic :: Software Development :: Libraries :: Python Modules",
)


#: Chance that one code piece of a risky package is risky-but-benign code.
RISKY_PIECE_PROBABILITY = 0.10
#: Fraction of packages that contain *any* risky-but-benign code at all.
#: Real popular libraries split roughly in half between pure-Python data
#: wrangling and packages that legitimately shell out / talk HTTP / read
#: the environment -- and only the latter can ever trip a broad rule.
RISKY_PACKAGE_PROBABILITY = 0.52


@dataclass
class BenignGeneratorConfig:
    """Knobs controlling the synthetic legitimate corpus."""

    package_count: int = 500
    seed: int = 500
    modules_range: tuple[int, int] = (6, 12)
    pieces_per_module_range: tuple[int, int] = (12, 26)
    use_popular_names: bool = True

    def __post_init__(self) -> None:
        if self.package_count < 0:
            raise ValueError("package_count must be >= 0")


class BenignGenerator:
    """Deterministically generate a corpus of legitimate packages."""

    def __init__(self, config: BenignGeneratorConfig | None = None) -> None:
        self.config = config or BenignGeneratorConfig()
        self._rng = DeterministicRandom(self.config.seed, "benign-generator")

    def generate(self) -> list[Package]:
        packages = []
        for index in range(self.config.package_count):
            packages.append(self._build_package(index))
        return packages

    def build_package(self, index: int) -> Package:
        """Build the ``index``-th package of the corpus on its own.

        Each package derives its randomness from a per-index child scope,
        so any index can be generated lazily — streaming consumers (the
        arena's replay traffic) draw single packages out of a large index
        space without materialising the corpus.
        """
        if index < 0:
            raise ValueError("package index must be >= 0")
        return self._build_package(index)

    # -- assembly -------------------------------------------------------------
    def _package_name(self, index: int, rng: DeterministicRandom) -> str:
        if self.config.use_popular_names and index < len(POPULAR_PACKAGES):
            return POPULAR_PACKAGES[index]
        return random_project_name(rng) + str(index)

    def _build_package(self, index: int) -> Package:
        rng = self._rng.child(f"pkg-{index}")
        name = self._package_name(index, rng)
        module_name = safe_identifier(name.replace("-", "_"))
        version = f"{rng.randint(1, 6)}.{rng.randint(0, 30)}.{rng.randint(0, 12)}"
        metadata = self._build_metadata(name, version, rng)

        module_count = rng.randint(*self.config.modules_range)
        chosen_modules = rng.sample(list(_MODULE_NAMES), module_count)
        risky_probability = RISKY_PIECE_PROBABILITY if rng.coin(RISKY_PACKAGE_PROBABILITY) else 0.0
        files = [
            PackageFile("setup.py", metadata.to_setup_py()),
            PackageFile("PKG-INFO", metadata.to_pkg_info()),
            PackageFile("README.md", self._render_readme(name, metadata)),
            PackageFile(f"{module_name}/__init__.py", self._render_init(module_name, chosen_modules, version)),
        ]
        for mod in chosen_modules:
            pieces = rng.randint(*self.config.pieces_per_module_range)
            content = render_module(
                rng.child(mod),
                pieces=pieces,
                risky_probability=risky_probability,
                docstring=f"{name}.{mod}: {mod} helpers.",
            )
            files.append(PackageFile(f"{module_name}/{mod}.py", content))
        if rng.coin(0.7):
            files.append(PackageFile(
                f"{module_name}/_vendor.py",
                render_vendored_module(rng.child("vendor"), pieces=rng.randint(3, 8),
                                       docstring=f"Vendored helpers bundled with {name}."),
            ))
        files.append(PackageFile(f"tests/test_{module_name}.py", self._render_tests(module_name, chosen_modules, rng)))

        return Package(
            name=name,
            version=version,
            metadata=metadata,
            files=files,
            label=BENIGN,
        )

    def _build_metadata(self, name: str, version: str, rng: DeterministicRandom) -> PackageMetadata:
        author, email = rng.choice(BENIGN_AUTHORS)
        summary = rng.choice(_SUMMARY_TEMPLATES).format(adj=rng.choice(_ADJECTIVES), noun=rng.choice(_NOUNS))
        dependencies = sorted(rng.sample(list(POPULAR_PACKAGES[:40]), rng.randint(0, 5)))
        dependencies = [dep for dep in dependencies if dep != name]
        description = (
            f"{name} is {summary.lower()} It provides a well-documented, fully tested public API, "
            "semantic-versioned releases, and wheels for all supported platforms. "
            "See the project documentation for tutorials, API reference and a changelog."
        )
        return PackageMetadata(
            name=name,
            version=version,
            summary=summary,
            description=description,
            author=author,
            author_email=email,
            home_page=f"https://github.com/{safe_identifier(name)}/{safe_identifier(name)}",
            license="MIT",
            keywords=[rng.choice(_NOUNS).lower(), "python", "library"],
            classifiers=list(_CLASSIFIERS),
            dependencies=dependencies,
        )

    def _render_init(self, module_name: str, modules: list[str], version: str) -> str:
        lines = [f'"""{module_name}: public package interface."""', ""]
        lines.append(f'__version__ = "{version}"')
        lines.append("")
        for mod in sorted(modules):
            lines.append(f"from {module_name} import {mod}  # noqa: F401")
        lines.append("")
        lines.append("__all__ = [")
        for mod in sorted(modules):
            lines.append(f'    "{mod}",')
        lines.append("]")
        return "\n".join(lines) + "\n"

    def _render_readme(self, name: str, metadata: PackageMetadata) -> str:
        return (
            f"# {name}\n\n{metadata.summary}\n\n"
            f"## Installation\n\n```bash\npip install {name}\n```\n\n"
            f"## Usage\n\n```python\nimport {safe_identifier(name.replace('-', '_'))}\n```\n\n"
            f"## License\n\n{metadata.license}\n"
        )

    def _render_tests(self, module_name: str, modules: list[str], rng: DeterministicRandom) -> str:
        lines = ['"""Smoke tests shipped with the sdist."""', "", f"import {module_name}", ""]
        lines.append("")
        lines.append(f"def test_version():")
        lines.append(f"    assert {module_name}.__version__")
        for mod in sorted(modules)[:4]:
            lines.append("")
            lines.append("")
            lines.append(f"def test_{mod}_importable():")
            lines.append(f"    from {module_name} import {mod}")
            lines.append(f"    assert {mod} is not None")
        return "\n".join(lines) + "\n"
