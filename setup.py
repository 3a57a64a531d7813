"""Setuptools configuration.

Kept as a plain ``setup.py`` so the package installs in minimal offline
environments where the ``wheel`` package is unavailable and PEP 517 editable
installs fail (``python setup.py develop`` still works there).
"""

from setuptools import find_packages, setup

setup(
    name="repro-rulellm",
    version="0.1.0",
    description="Reproduction of RuleLLM: LLM-generated YARA/Semgrep rules "
    "for malicious-package detection, with a registry-scale scanning service",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "PyYAML"],
    entry_points={"console_scripts": ["rulellm = repro.cli:main"]},
)
