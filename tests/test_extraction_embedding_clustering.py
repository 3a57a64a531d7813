"""Tests for the hashing embedder and the K-Means grouping step."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import DatasetConfig, build_dataset
from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.extraction import embedding
from repro.extraction.clustering import (
    KMeans,
    cluster_packages,
    cosine_similarity,
    intra_cluster_similarity,
)
from repro.extraction.embedding import CodeEmbedder, EmbeddingConfig, tokenize_code
from repro.extraction.snippets import split_segments
from repro.utils.hashing import stable_hash


def test_tokenize_code_handles_valid_python():
    tokens = tokenize_code("def f(x):\n    return x + 1\n")
    assert "def" in tokens and "return" in tokens


def test_tokenize_code_falls_back_on_broken_code():
    tokens = tokenize_code("def broken(:\n  ???")
    assert tokens  # regex fallback still produces tokens


def test_embedding_is_unit_norm_and_deterministic():
    embedder = CodeEmbedder()
    a = embedder.embed("import os\nos.system('id')")
    b = embedder.embed("import os\nos.system('id')")
    assert np.allclose(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-9


def test_embedding_similarity_orders_related_code_first():
    embedder = CodeEmbedder()
    base = embedder.embed_document("import socket\ns = socket.socket()\ns.connect(('h', 80))")
    variant = embedder.embed_document("import socket\nsock = socket.socket()\nsock.connect(('x', 443))")
    unrelated = embedder.embed_document("def moving_average(vals, w):\n    return sum(vals[-w:]) / w")
    assert cosine_similarity(base, variant) > cosine_similarity(base, unrelated)


def test_embedding_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(dimensions=4)
    with pytest.raises(ValueError):
        EmbeddingConfig(segment_length=0)


def test_embed_packages_shape(malware_packages):
    embedder = CodeEmbedder()
    matrix = embedder.embed_packages(malware_packages[:5])
    assert matrix.shape == (5, embedder.config.dimensions)


def test_kmeans_separates_obvious_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.05, size=(20, 4))
    b = rng.normal(5.0, 0.05, size=(20, 4))
    data = np.vstack([a, b])
    labels = KMeans(n_clusters=2).fit_predict(data)
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[-1]


def test_kmeans_validates_input():
    with pytest.raises(ValueError):
        KMeans(n_clusters=0)
    with pytest.raises(ValueError):
        KMeans(n_clusters=2).fit(np.zeros((0, 3)))


def test_kmeans_handles_more_clusters_than_points():
    data = np.array([[0.0, 0.0], [1.0, 1.0]])
    labels = KMeans(n_clusters=10).fit_predict(data)
    assert len(labels) == 2


def test_intra_cluster_similarity_bounds():
    identical = np.vstack([np.ones(8), np.ones(8)])
    assert intra_cluster_similarity(identical) == pytest.approx(1.0)
    single = np.ones((1, 8))
    assert intra_cluster_similarity(single) == 1.0


def test_cosine_similarity_zero_vector():
    assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0


def test_cluster_packages_groups_families(malware_packages):
    result = cluster_packages(malware_packages)
    assert result.package_count + sum(len(g) for g in result.discarded) == len(malware_packages)
    # members of the same retained cluster overwhelmingly share their family
    for cluster in result.clusters:
        families = {pkg.family for pkg in cluster}
        assert len(families) <= 2


def test_cluster_packages_empty_input():
    result = cluster_packages([])
    assert result.clusters == [] and result.discarded == []


def test_cluster_labels_mapping_consistent(malware_packages):
    result = cluster_packages(malware_packages)
    for index, cluster in enumerate(result.clusters):
        for pkg in cluster:
            assert result.labels[pkg.identifier] == index


# -- reference implementations -------------------------------------------------
# The embedder memoises and counts with np.bincount, and K-Means computes
# distances one centroid at a time; these are the straightforward versions
# they must reproduce bit for bit.


def _reference_embed(text: str, config: EmbeddingConfig) -> np.ndarray:
    dims = config.dimensions
    vector = np.zeros(dims, dtype=np.float64)
    tokens = tokenize_code(text)
    if config.lowercase:
        tokens = [token.lower() for token in tokens]
    if not tokens:
        return vector
    for token in tokens:
        vector[stable_hash(token, bits=32) % dims] += 1.0
    if config.use_bigrams:
        for first, second in zip(tokens, tokens[1:]):
            vector[stable_hash(first + "\x00" + second, bits=32) % dims] += 0.5
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector


def _reference_document(text: str, config: EmbeddingConfig) -> np.ndarray:
    segments = split_segments(text, config.segment_length) or [""]
    vector = np.vstack([_reference_embed(segment, config) for segment in segments]).mean(axis=0)
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector = vector / norm
    return vector


class _ReferenceEmbedder(CodeEmbedder):
    def embed_packages(self, packages):
        if not packages:
            return np.zeros((0, self.config.dimensions))
        return np.vstack([
            _reference_document(package.source_text or package.all_text, self.config)
            for package in packages
        ])


class _ReferenceKMeans(KMeans):
    @staticmethod
    def _pairwise_sq_distances(data, centroids):
        diff = data[:, None, :] - centroids[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    @staticmethod
    def _init_centroids(data, k, rng):
        samples = data.shape[0]
        first = int(rng.integers(samples))
        chosen = [first]
        for _ in range(1, k):
            current = data[chosen]
            distances = _ReferenceKMeans._pairwise_sq_distances(data, current).min(axis=1)
            total = distances.sum()
            if total <= 0:
                remaining = [i for i in range(samples) if i not in chosen]
                if not remaining:
                    break
                chosen.append(int(rng.choice(remaining)))
                continue
            probabilities = distances / total
            chosen.append(int(rng.choice(samples, p=probabilities)))
        return data[chosen].astype(np.float64).copy()


# -- embedder parity -------------------------------------------------------------
_CODE = [
    "",
    "import os\nos.system('id')\n",
    "def f(x):\n    return x + 1\n",
    "def broken(:\n  ???",  # tokenize fails: regex fallback
    "x = '''unterminated\n",  # TokenError: regex fallback
    "s = 'naïve café ☕'\nΑΒΓ = s.upper()\n",
    "x = 1\n" * 40,  # many identical segments within one text
    "IMPORT Os\nimport os\n" * 12,
]

_code = st.one_of(st.sampled_from(_CODE), st.text(max_size=300))
_configs = st.builds(
    EmbeddingConfig,
    dimensions=st.sampled_from([8, 13, 256]),
    segment_length=st.sampled_from([16, 64, 512]),
    use_bigrams=st.booleans(),
    lowercase=st.booleans(),
)


def _package(index: int, contents: list[str]) -> Package:
    return Package(
        name=f"p{index}",
        version="1.0",
        metadata=PackageMetadata(name=f"p{index}"),
        files=[PackageFile(f"mod{i}.py", content) for i, content in enumerate(contents)],
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _configs,
    st.lists(_code, min_size=1, max_size=5),
    st.lists(st.lists(st.integers(0, 4), max_size=4), min_size=1, max_size=6),
)
def test_embedder_matches_per_occurrence_reference(config, pool, layout):
    # packages draw their files from one small pool, so texts repeat within
    # and across packages
    packages = [
        _package(index, [pool[pick % len(pool)] for pick in picks])
        for index, picks in enumerate(layout)
    ]
    embedder = CodeEmbedder(config)
    expected = _ReferenceEmbedder(config).embed_packages(packages)
    assert np.array_equal(embedder.embed_packages(packages), expected)
    for text in pool:
        assert np.array_equal(embedder.embed(text), _reference_embed(text, config))
        assert np.array_equal(embedder.embed_document(text), _reference_document(text, config))


def test_cluster_packages_matches_reference_embedder(small_dataset):
    packages = list(small_dataset.packages)
    real = cluster_packages(packages)
    reference = cluster_packages(packages, embedder=_ReferenceEmbedder())
    assert real.labels == reference.labels
    assert real.similarities == reference.similarities
    assert [[p.identifier for p in group] for group in real.discarded] == [
        [p.identifier for p in group] for group in reference.discarded
    ]


def test_embedder_memo_lives_for_one_call(malware_packages, monkeypatch):
    # Count the tokenising and hashing the embedder does.  Within a call,
    # each distinct segment is tokenised once and each distinct key hashed
    # once; a repeated call does all of it again, so no memo outlives its
    # call, whether kept on the instance, the class or the module.
    calls = {"tokenize": 0, "hash": 0}

    def counting_tokenize(text):
        calls["tokenize"] += 1
        return tokenize_code(text)

    def counting_hash(*args, **kwargs):
        calls["hash"] += 1
        return stable_hash(*args, **kwargs)

    monkeypatch.setattr(embedding, "tokenize_code", counting_tokenize)
    monkeypatch.setattr(embedding, "stable_hash", counting_hash)

    packages = list(malware_packages)
    config = EmbeddingConfig()
    segments = [
        segment
        for package in packages
        for segment in split_segments(package.source_text or package.all_text, config.segment_length)
    ]
    keys = set()
    for segment in set(segments):
        tokens = [token.lower() for token in tokenize_code(segment)]
        keys.update(tokens)
        keys.update(first + "\x00" + second for first, second in zip(tokens, tokens[1:]))
    assert len(set(segments)) < len(segments)  # the corpus repeats segments

    embedder = CodeEmbedder(config)
    instance_state = dict(vars(embedder))
    module_names = set(vars(embedding))
    runs = [
        lambda: embedder.embed_packages(packages),
        lambda: embedder.embed_document("import os\n" * 200),
        lambda: embedder.embed("import os"),
    ]
    counts = []
    for run in runs:
        per_call = []
        for _ in range(2):
            calls.update(tokenize=0, hash=0)
            run()
            per_call.append(dict(calls))
        assert per_call[0] == per_call[1]
        counts.append(per_call[0])
    assert counts[0] == {"tokenize": len(set(segments)), "hash": len(keys)}
    assert vars(embedder) == instance_state
    assert set(vars(embedding)) == module_names


# -- K-Means parity and memory -------------------------------------------------------
def _assert_same_fit(data: np.ndarray, k: int, seed: int = 42) -> KMeans:
    fitted = KMeans(n_clusters=k, random_seed=seed).fit(data)
    reference = _ReferenceKMeans(n_clusters=k, random_seed=seed).fit(data)
    assert np.array_equal(fitted.labels, reference.labels)
    assert np.array_equal(fitted.centroids, reference.centroids)
    assert fitted.iterations_run == reference.iterations_run
    return fitted


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape,k", [((82, 256), 20), ((60, 7), 9), ((30, 3), 30)])
def test_kmeans_matches_batched_reference_on_random_data(seed, shape, k):
    data = np.random.default_rng(seed).normal(size=shape)
    _assert_same_fit(data, k, seed=seed)


def test_kmeans_matches_reference_on_duplicate_points():
    # all-equal rows: every k-means++ step after the first takes the
    # zero-distance branch, and all but one cluster come up empty and
    # are re-seeded
    fitted = _assert_same_fit(np.ones((10, 4)), 4)
    assert set(fitted.labels) == {0}
    # three distinct points, five copies each, six clusters
    rows = np.random.default_rng(5).normal(size=(3, 16))
    _assert_same_fit(np.repeat(rows, 5, axis=0), 6)


def test_kmeans_matches_reference_on_medium_corpus_embeddings():
    dataset = build_dataset(DatasetConfig.medium())
    matrix = CodeEmbedder().embed_packages(dataset.packages)
    _assert_same_fit(matrix, round(len(dataset.packages) / 4))
    train = CodeEmbedder().embed_packages(dataset.malware[::2])
    _assert_same_fit(train, round(len(dataset.malware[::2]) / 4))


def test_kmeans_fit_memory_stays_bounded():
    # a batched n x k x d distance temporary here would be 82 MB
    data = np.random.default_rng(7).normal(size=(400, 256))
    tracemalloc.start()
    try:
        KMeans(n_clusters=100).fit(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
