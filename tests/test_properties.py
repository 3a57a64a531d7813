"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus.package import Package, PackageFile, PackageMetadata
from repro.corpus.dedup import deduplicate
from repro.evaluation.metrics import ConfusionMatrix
from repro.extraction.embedding import CodeEmbedder
from repro.extraction.snippets import split_segments
from repro.core.basic_units import split_basic_units
from repro.llm.tokenizer import count_tokens, truncate_to_tokens
from repro.utils.hashing import content_signature, stable_hash
from repro.yarax import compile_source, parse_source, serialize_rule
from repro.yarax.serializer import YaraRuleBuilder

_slow = settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None)

yara_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1, max_size=40,
).filter(lambda s: s.strip())


@_slow
@given(st.lists(yara_text, min_size=1, max_size=6), st.text(max_size=200))
def test_yara_builder_roundtrip_and_matching(values, haystack):
    """Any rule built from printable strings serialises, re-parses and compiles."""
    builder = YaraRuleBuilder("prop_rule").meta("description", "property test")
    for value in values:
        builder.text_string(value)
    builder.condition_any_of_them()
    source = builder.to_source()
    parsed = parse_source(source)[0]
    assert [s.value for s in parsed.strings] == values
    assert serialize_rule(parsed) == source
    compiled = compile_source(source)
    # soundness of matching: the rule fires iff one of its strings is present
    expected = any(value in haystack for value in values)
    assert bool(compiled.match(haystack)) == expected


@_slow
@given(st.lists(st.booleans(), min_size=1, max_size=60),
       st.lists(st.booleans(), min_size=1, max_size=60))
def test_metric_identities(labels, predictions):
    size = min(len(labels), len(predictions))
    labels, predictions = labels[:size], predictions[:size]
    matrix = ConfusionMatrix()
    for actual, predicted in zip(labels, predictions):
        matrix.record(actual, predicted)
    assert matrix.total == size
    assert 0.0 <= matrix.accuracy <= 1.0
    assert 0.0 <= matrix.precision <= 1.0
    assert 0.0 <= matrix.recall <= 1.0
    lower = min(matrix.precision, matrix.recall) - 1e-9
    upper = max(matrix.precision, matrix.recall) + 1e-9
    assert (lower <= matrix.f1 <= upper) or matrix.f1 == 0.0


@_slow
@given(st.text(max_size=3000), st.integers(min_value=1, max_value=600))
def test_split_segments_partition_property(text, segment_length):
    segments = split_segments(text, segment_length)
    assert "".join(segments) == text
    assert all(segments[i] for i in range(len(segments)))


@_slow
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=2000))
def test_basic_units_preserve_nonblank_lines(source):
    units = split_basic_units(source) if source.strip() else []
    joined = "\n".join(units)
    for line in source.splitlines():
        if line.strip():
            assert line.rstrip() in joined or line.strip() in joined


@_slow
@given(st.text(max_size=2000))
def test_embedder_is_deterministic_and_normalised(code):
    import numpy as np
    package = Package(name="p", version="1.0", metadata=PackageMetadata(name="p"),
                      files=[PackageFile("mod.py", code)])
    a, b = CodeEmbedder().embed_packages([package, package])
    assert np.array_equal(a, b)
    norm = float(np.linalg.norm(a))
    assert norm == 0.0 or abs(norm - 1.0) < 1e-9


@_slow
@given(st.lists(st.sampled_from(["alpha", "beta", "gamma"]), min_size=1, max_size=20))
def test_dedup_idempotent_and_partitioning(payloads):
    packages = [
        Package(name=f"p{i}", version="1", metadata=PackageMetadata(name=f"p{i}"),
                files=[PackageFile("m/core.py", payload)], label="malware")
        for i, payload in enumerate(payloads)
    ]
    result = deduplicate(packages)
    assert len(result.unique) + len(result.duplicates) == len(packages)
    assert len(result.unique) == len(set(payloads))
    again = deduplicate(result.unique)
    assert not again.duplicates


@_slow
@given(st.text(max_size=4000), st.integers(min_value=1, max_value=500))
def test_tokenizer_truncation_respects_budget(text, budget):
    truncated, was_truncated = truncate_to_tokens(text, budget)
    assert count_tokens(truncated) <= budget
    assert truncated == text or was_truncated
    assert text.startswith(truncated)


@_slow
@given(st.lists(st.text(max_size=30), max_size=10))
def test_content_signature_is_order_invariant(parts):
    import random
    shuffled = list(parts)
    random.Random(0).shuffle(shuffled)
    assert content_signature(parts) == content_signature(shuffled)


@_slow
@given(st.text(max_size=100), st.integers(min_value=1, max_value=256))
def test_stable_hash_bit_bound(text, bits):
    assert 0 <= stable_hash(text, bits) < (1 << bits)
