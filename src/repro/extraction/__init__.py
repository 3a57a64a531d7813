"""Malware knowledge extraction (paper Section III).

Turns a package into the two inputs RuleLLM consumes:

* **metadata** -- extracted from ``PKG-INFO``, ``setup.py`` or the registry
  JSON (Figure 1), normalised into :class:`repro.corpus.package.PackageMetadata`;
* **code snippets** -- source files split into fixed-length segments,
  embedded into vectors (CodeBERT in the paper, a deterministic hashing
  embedder here) and grouped with K-Means so that near-identical malware
  variants land in the same cluster (Figure 2).
"""

from repro.extraction.metadata import extract_metadata, metadata_audit
from repro.extraction.unpacking import load_package_from_directory, write_package_to_directory
from repro.extraction.snippets import split_segments
from repro.extraction.embedding import CodeEmbedder
from repro.extraction.clustering import (
    ClusterResult,
    KMeans,
    cluster_packages,
    intra_cluster_similarity,
)

__all__ = [
    "extract_metadata",
    "metadata_audit",
    "write_package_to_directory",
    "load_package_from_directory",
    "split_segments",
    "CodeEmbedder",
    "KMeans",
    "ClusterResult",
    "cluster_packages",
    "intra_cluster_similarity",
]
