"""K-Means clustering of code embeddings (paper Section III-B, "Group").

The paper clusters code-snippet vectors with scikit-learn's K-Means
(random seed 42, at most 500 iterations) and keeps only clusters whose
intra-similarity is at least 0.85.  scikit-learn is not available offline, so
this module provides a NumPy K-Means with the same hyper-parameters, plus the
similarity computations and the package-level ``cluster_packages`` helper the
pipeline uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corpus.package import Package
from repro.extraction.embedding import CodeEmbedder

#: Hyper-parameters fixed by the paper.
DEFAULT_RANDOM_SEED = 42
DEFAULT_MAX_ITERATIONS = 500
DEFAULT_SIMILARITY_THRESHOLD = 0.85


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two vectors (0.0 when either is zero)."""
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def intra_cluster_similarity(vectors: np.ndarray) -> float:
    """Average pairwise cosine similarity of the rows of ``vectors``.

    A single-member cluster is perfectly homogeneous by definition.
    """
    count = vectors.shape[0]
    if count <= 1:
        return 1.0
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    normalised = vectors / norms
    gram = normalised @ normalised.T
    total = gram.sum() - np.trace(gram)
    pairs = count * (count - 1)
    return float(total / pairs)


class KMeans:
    """Plain NumPy K-Means with k-means++ style initialisation."""

    def __init__(
        self,
        n_clusters: int,
        random_seed: int = DEFAULT_RANDOM_SEED,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        tolerance: float = 1e-6,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.random_seed = random_seed
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.centroids: np.ndarray | None = None
        self.labels: np.ndarray | None = None
        self.iterations_run: int = 0

    # -- fitting ------------------------------------------------------------
    def fit(self, data: np.ndarray) -> "KMeans":
        if data.ndim != 2:
            raise ValueError("data must be a 2-D array of row vectors")
        samples = data.shape[0]
        if samples == 0:
            raise ValueError("cannot cluster an empty data set")
        k = min(self.n_clusters, samples)
        rng = np.random.default_rng(self.random_seed)
        centroids = self._init_centroids(data, k, rng)
        labels = np.zeros(samples, dtype=np.int64)
        for iteration in range(1, self.max_iterations + 1):
            distances = self._pairwise_sq_distances(data, centroids)
            labels = distances.argmin(axis=1)
            new_centroids = centroids.copy()
            for cluster in range(k):
                members = data[labels == cluster]
                if len(members):
                    new_centroids[cluster] = members.mean(axis=0)
                else:
                    # re-seed an empty cluster at the farthest point
                    farthest = distances.min(axis=1).argmax()
                    new_centroids[cluster] = data[farthest]
            shift = float(np.linalg.norm(new_centroids - centroids))
            centroids = new_centroids
            self.iterations_run = iteration
            if shift <= self.tolerance:
                break
        self.centroids = centroids
        self.labels = labels
        return self

    def predict(self, data: np.ndarray) -> np.ndarray:
        if self.centroids is None:
            raise RuntimeError("KMeans.predict called before fit")
        return self._pairwise_sq_distances(data, self.centroids).argmin(axis=1)

    def fit_predict(self, data: np.ndarray) -> np.ndarray:
        return self.fit(data).labels  # type: ignore[return-value]

    # -- internals ---------------------------------------------------------------
    @staticmethod
    def _pairwise_sq_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        # Euclidean distance in vector space, as in the paper.  One centroid
        # at a time keeps the temporary at n x d rather than n x k x d
        # (1.36 GB at paper scale), with the same per-pair sums.
        distances = np.empty((data.shape[0], centroids.shape[0]))
        for column, centroid in enumerate(centroids):
            distances[:, column] = KMeans._sq_distances(data, centroid)
        return distances

    @staticmethod
    def _sq_distances(data: np.ndarray, point: np.ndarray) -> np.ndarray:
        diff = data - point
        return np.einsum("ik,ik->i", diff, diff)

    @staticmethod
    def _init_centroids(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        samples = data.shape[0]
        first = int(rng.integers(samples))
        chosen = [first]
        # squared distance from each point to its nearest chosen centroid
        closest = KMeans._sq_distances(data, data[first])
        for _ in range(1, k):
            total = closest.sum()
            if total <= 0:
                remaining = [i for i in range(samples) if i not in chosen]
                if not remaining:
                    break
                pick = int(rng.choice(remaining))
            else:
                pick = int(rng.choice(samples, p=closest / total))
            chosen.append(pick)
            np.minimum(closest, KMeans._sq_distances(data, data[pick]), out=closest)
        return data[chosen].astype(np.float64).copy()


@dataclass
class ClusterResult:
    """Outcome of grouping packages by code similarity."""

    clusters: list[list[Package]] = field(default_factory=list)
    discarded: list[list[Package]] = field(default_factory=list)
    similarities: list[float] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)

    @property
    def retained_count(self) -> int:
        return len(self.clusters)

    @property
    def package_count(self) -> int:
        return sum(len(group) for group in self.clusters)

    def cluster_of(self, package: Package) -> int | None:
        return self.labels.get(package.identifier)


def cluster_packages(
    packages: list[Package],
    embedder: CodeEmbedder | None = None,
    n_clusters: int | None = None,
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
    random_seed: int = DEFAULT_RANDOM_SEED,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ClusterResult:
    """Group similar packages with K-Means, keeping homogeneous clusters.

    ``n_clusters`` defaults to a heuristic (one cluster per ~4 packages,
    bounded to [1, n]); clusters whose average pairwise cosine similarity is
    below ``similarity_threshold`` are reported in ``discarded`` (paper:
    "clusters with an intra-similarity below 0.85 are discarded").
    """
    result = ClusterResult()
    if not packages:
        return result
    embedder = embedder or CodeEmbedder()
    matrix = embedder.embed_packages(packages)
    if n_clusters is None:
        n_clusters = max(1, round(len(packages) / 4))
    n_clusters = min(max(1, n_clusters), len(packages))
    model = KMeans(n_clusters=n_clusters, random_seed=random_seed, max_iterations=max_iterations)
    labels = model.fit_predict(matrix)

    for cluster_index in range(int(labels.max()) + 1):
        member_indices = [i for i, label in enumerate(labels) if label == cluster_index]
        if not member_indices:
            continue
        members = [packages[i] for i in member_indices]
        similarity = intra_cluster_similarity(matrix[member_indices])
        result.similarities.append(similarity)
        if similarity >= similarity_threshold:
            for member in members:
                result.labels[member.identifier] = len(result.clusters)
            result.clusters.append(members)
        else:
            result.discarded.append(members)
    return result
