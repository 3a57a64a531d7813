"""Atom matcher parity: every lane of ``PackedAutomaton`` vs a per-word oracle.

The contract is exact: for every vocabulary and every batch of haystacks,
each lane (per-word substring, dense DFA walk) and both forms of the walk
(one step per byte, every segment in lockstep) return what the test-local
``_reference`` oracle returns.  No option forces a lane or a walk, so the
tests call those methods directly; the lane ``find_batch`` picks follows the
vocabulary alone, and the walk follows the cost model.  Segment boundaries
come from the matcher's own ``_segment_length``.  Serialization
(``to_bytes``/``from_bytes`` and pickle) must restore tables that produce
identical hit sets, lane and stats without re-running construction.
"""

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scanserve import PackedAutomaton, RuleIndex
from repro.scanserve.packed import (
    AUTOMATON_THRESHOLD,
    _segment_length,
    _segments_pay,
)
from repro.scanserve.registry import RulesetRegistry, RulesetVersion
from repro.yarax import compile_source

_slow = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

# alphabets chosen to force overlapping atoms, shared prefixes/suffixes, and
# casefold length changes (ß -> ss, ﬅ -> st); words and haystacks draw from
# the same pool so matches are common, not vanishingly rare
_CHARS = "abßcﬅ𝕏日_"
_words = st.lists(
    st.text(alphabet=_CHARS, min_size=1, max_size=6), min_size=1, max_size=12
)
_haystack = st.text(alphabet=_CHARS, max_size=64)


def _reference(words, text):
    """Oracle: per-word Python substring check."""
    return {i for i, w in enumerate(dict.fromkeys(words)) if w in text}


def _each_lane(auto, texts):
    """``{lane: per-text hit sets}`` with both lanes, and both forms of the
    walk, run on ``texts``."""
    encoded = [t.encode("utf-8", "surrogatepass") for t in texts]
    walk = auto._find_walk(encoded)  # builds the tables on a first call
    return {
        "substring": auto._find_substring(encoded),
        "walk": walk,
        "walk per byte": auto._walk_bytes(encoded),
        "walk in lockstep": auto._walk_segments(encoded),
    }


# -- single-text parity -------------------------------------------------------------


class TestFindParity:
    @_slow
    @given(_words, _haystack)
    def test_each_lane_equals_reference(self, words, text):
        auto = PackedAutomaton(words)
        expected = _reference(words, text)
        for lane, hits in _each_lane(auto, [text]).items():
            assert hits == [expected], lane
        assert auto.find(text) == expected

    def test_empty_text(self):
        auto = PackedAutomaton(["abc"])
        assert auto.find("") == set()

    def test_empty_vocabulary(self):
        auto = PackedAutomaton([])
        assert auto.find("anything") == set()
        assert auto.find_batch(["a", "b"]) == [set(), set()]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            PackedAutomaton(["ok", ""])

    def test_overlapping_and_suffix_atoms(self):
        words = ["he", "she", "his", "hers", "ers", "s"]
        auto = PackedAutomaton(words)
        assert auto.find("ushers") == {
            words.index("he"),
            words.index("she"),
            words.index("hers"),
            words.index("ers"),
            words.index("s"),
        }

    def test_word_is_prefix_of_other(self):
        auto = PackedAutomaton(["base", "base64", "base64decode"])
        assert auto.find("xx base64 yy") == {0, 1}
        assert auto.find("base64decode()") == {0, 1, 2}

    def test_duplicate_words_deduplicate(self):
        auto = PackedAutomaton(["dup", "dup", "other"])
        assert len(auto) == 2
        assert auto.find("dup") == {0}

    def test_casefold_length_change_fold_then_encode(self):
        # "STRASSE".casefold() == "strasse"; the atom is indexed folded and
        # the caller folds before matching — byte offsets never map back
        atom = "straße".casefold()  # "strasse"
        auto = PackedAutomaton([atom])
        assert auto.find("the STRASSE sign".casefold()) == {0}

    def test_accepts_prefolded_bytes(self):
        auto = PackedAutomaton(["evil"])
        assert auto.find(b"import evil") == {0}
        assert auto.find("import evil".encode("utf-8")) == {0}

    def test_non_bmp_and_multibyte_no_mid_character_match(self):
        # UTF-8 self-synchronization: the bytes of "日" never appear inside
        # the encoding of a different character sequence
        auto = PackedAutomaton(["日"])
        assert auto.find("𝕏𝕏𝕏") == set()
        assert auto.find("x日x") == {0}


# -- batch parity -------------------------------------------------------------------


class TestBatchParity:
    @_slow
    @given(_words, st.lists(_haystack, max_size=8))
    def test_find_batch_equals_mapped_find(self, words, texts):
        auto = PackedAutomaton(words)
        assert auto.find_batch(texts) == [auto.find(t) for t in texts]
        assert auto.find_batch(texts) == [_reference(words, t) for t in texts]

    @_slow
    @given(_words, st.lists(_haystack, min_size=2, max_size=8))
    def test_each_lane_equals_reference_on_batches(self, words, texts):
        auto = PackedAutomaton(words)
        expected = [_reference(words, t) for t in texts]
        for lane, hits in _each_lane(auto, texts).items():
            assert hits == expected, lane

    def test_empty_batch(self):
        assert PackedAutomaton(["a"]).find_batch([]) == []

    def test_batch_with_empty_texts(self):
        auto = PackedAutomaton(["ab"])
        for hits in _each_lane(auto, ["", "ab", ""]).values():
            assert hits == [set(), {0}, set()]

    def test_match_never_crosses_texts(self):
        auto = PackedAutomaton(["abcd"])
        # "ab" + "cd" adjacent in the laid-out batch must not fire
        for hits in _each_lane(auto, ["ab", "cd"]).values():
            assert hits == [set(), set()]
        # nor may a gap-like byte already inside a (non-UTF-8) text
        encoded = [b"ab\xffcd", b"abcd"]
        for walk in (auto._walk_bytes, auto._walk_segments):
            assert walk(encoded) == [set(), {0}]

    def test_long_words_verified_per_occurrence(self):
        # a long prefix shared by several words, only some of which occur
        long_a = "registry_" + "a" * 8
        long_b = "registry_" + "b" * 8
        auto = PackedAutomaton([long_a, long_b, "registry"])
        texts = [f"x {long_a} registry y", "no hits", f"registry {long_b}"]
        for hits in _each_lane(auto, texts).values():
            assert hits == [{0, 2}, set(), {1, 2}]

    def test_repeated_guard_occurrences(self):
        word = "prefix__long_tail"
        auto = PackedAutomaton([word, "prefix__"])
        text = "prefix__x prefix__y " + word
        for hits in _each_lane(auto, [text, text]).values():
            assert hits == [{0, 1}, {0, 1}]


# -- lockstep segments --------------------------------------------------------------


def _agreed_hits(auto, texts):
    """Per-text hit sets that both lanes, both walks and ``find_batch`` agree on."""
    lanes = _each_lane(auto, texts)
    hits = lanes.pop("walk in lockstep")
    for lane, other in lanes.items():
        assert other == hits, lane
    assert auto.find_batch(texts) == hits
    return hits


def _straddle_word(k: int) -> str:
    return f"[{k:05d}_straddle]"  # 16 bytes, so 15 warm-up bytes


def _straddling_text(length: int, size: int, span: int = 16) -> str:
    """``size`` filler bytes with word ``k`` planted across boundary ``k *
    length``, at every offset from starting on it to ending just before it."""
    text = ["."] * size
    for k in range(1, size // length):
        start = k * length - k % (span + 1)
        text[start : start + span] = _straddle_word(k)
    return "".join(text)


class TestLockstepWalk:
    @_slow
    @given(
        st.lists(st.text(alphabet="ab", min_size=1, max_size=7), min_size=1, max_size=10),
        st.lists(st.text(alphabet="ab_", max_size=400), max_size=8),
    )
    def test_dense_matches_across_many_segments(self, words, texts):
        auto = PackedAutomaton(words)
        assert _agreed_hits(auto, texts) == [_reference(words, t) for t in texts]

    def test_atoms_straddle_every_segment_boundary(self):
        size = 20_000
        words = [_straddle_word(k) for k in range(1, 400)]
        auto = PackedAutomaton(words)
        assert auto._warm == 15
        length = _segment_length(size + 1, auto._warm)  # one text and its gap
        text = _straddling_text(length, size)
        assert _segments_pay(size + 1, auto._warm)
        planted = size // length - 1
        assert planted > 100
        assert _agreed_hits(auto, [text]) == [set(range(planted))]

    def test_atoms_at_text_edges_and_across_gaps(self):
        """Texts of one segment less a gap byte each, so every text starts on
        a boundary; words sit at text starts and ends, and a word split over
        two texts must not match."""
        words = [_straddle_word(k) for k in range(600)]
        auto = PackedAutomaton(words)
        count = 300
        length = _segment_length(count * 64, auto._warm)
        assert _segment_length(count * length, auto._warm) == length
        texts = []
        for i in range(0, count, 3):
            edge_a, edge_b, split = (_straddle_word(i + j) for j in range(3))
            cut = 1 + i % 15
            texts.append(edge_a + "." * (length - 33) + edge_b)
            texts.append("." * (length - 1 - cut) + split[:cut])
            texts.append(split[cut:] + "." * (length - 1 - 16 + cut))
        assert {len(t) for t in texts} == {length - 1}
        hits = _agreed_hits(auto, texts)
        assert hits == [_reference(words, t) for t in texts]
        assert hits[::3] == [{i, i + 1} for i in range(0, count, 3)]
        assert not any(hits[1::3]) and not any(hits[2::3])

    def test_texts_shorter_than_the_warm_up(self):
        rng = random.Random(7)
        words = ["ab", "ba", "aab", "x" * 40]
        texts = ["".join(rng.choice("ab") for _ in range(rng.randrange(6))) for _ in range(4000)]
        texts += ["x" * 40, "x" * 39, ""]
        auto = PackedAutomaton(words)
        assert _segments_pay(sum(len(t) + 1 for t in texts), auto._warm)
        assert _agreed_hits(auto, texts) == [_reference(words, t) for t in texts]

    def test_empty_batch_and_empty_texts(self):
        auto = PackedAutomaton(["abc", "b"])
        auto._find_walk([])
        assert auto._walk_segments([]) == []
        assert auto._walk_segments([b"", b""]) == [set(), set()]
        assert auto._walk_segments([b"", b"abc", b""]) == [set(), {0, 1}, set()]

    def test_one_byte_atoms_need_no_warm_up(self):
        words = list("aé日")
        auto = PackedAutomaton(words)
        assert auto._warm == 2  # the longest is 3 bytes of UTF-8
        single = PackedAutomaton(["a", "b"])
        assert single._warm == 0
        texts = ["." * 200 + "a", "b" + "." * 150, "." * 64, "ab" * 40]
        assert _agreed_hits(single, texts) == [{0}, {1}, set(), {0, 1}]
        assert _agreed_hits(auto, texts) == [_reference(words, t) for t in texts]

    def test_multibyte_utf8_and_lone_surrogates(self):
        pool = ["日", "本", "𝕏", "ß", "\ud800", "\udfff", "a", "."]
        words = ["日本", "𝕏a", "\ud800a", "a\udfff", "ß日", "本本本", "𝕏"]
        auto = PackedAutomaton(words)
        for seed in range(3):
            rng = random.Random(seed)
            texts = [
                "".join(rng.choice(pool) for _ in range(rng.randrange(1, 900)))
                for _ in range(6)
            ]
            assert _agreed_hits(auto, texts) == [_reference(words, t) for t in texts]

    def test_vocabulary_with_a_256_byte_atom(self):
        long_word = "q" * 200 + "r" * 56
        words = [_straddle_word(k) for k in range(1, 800)] + [long_word]
        auto = PackedAutomaton(words)
        assert auto._warm == 255
        size = 60_000
        length = _segment_length(size + 1, auto._warm)
        assert length < len(long_word)  # the atom spans several segments
        text = list(_straddling_text(length, size))
        for start in (1_000, 7_777, 40_001, size - len(long_word)):
            text[start : start + len(long_word)] = long_word
        text = "".join(text)
        assert _segments_pay(size + 1, auto._warm)
        hits = _agreed_hits(auto, [text])
        assert hits == [_reference(words, text)]
        assert len(words) - 1 in hits[0]
        # one small text stays on the per-byte walk at this warm-up
        assert not _segments_pay(15_500, auto._warm)

    def test_cost_model_picks_each_walk(self, monkeypatch):
        words = [_straddle_word(k) for k in range(300)]
        auto = PackedAutomaton(words)
        calls = []

        def spy(name):
            walk = getattr(auto, name)
            return lambda encoded: calls.append(name) or walk(encoded)

        for name in ("_walk_bytes", "_walk_segments"):
            monkeypatch.setattr(auto, name, spy(name))
        small = [_straddle_word(5) + "." * 500]
        large = [_straddle_word(k) + "." * 500 for k in range(60)]
        assert auto.find_batch(small) == [{5}]
        assert auto.find_batch(large) == [{k} for k in range(60)]
        assert calls == ["_walk_bytes", "_walk_segments"]


# -- lane selection -----------------------------------------------------------------


class TestLaneSelection:
    def test_lane_follows_the_vocabulary(self):
        few = [f"w{i:04d}" for i in range(AUTOMATON_THRESHOLD - 1)]
        assert PackedAutomaton([]).lane == "substring"
        assert PackedAutomaton(few).lane == "substring"
        # one more word crosses the threshold, whatever the words share
        assert PackedAutomaton(few + ["w9999"]).lane == "walk"
        shared_prefix = [f"registry_{i}" for i in range(AUTOMATON_THRESHOLD)]
        assert PackedAutomaton(shared_prefix).lane == "walk"
        assert PackedAutomaton(shared_prefix * 2).lane == "walk"


# -- serialization ------------------------------------------------------------------


def _same_tables(a: PackedAutomaton, b: PackedAutomaton) -> None:
    assert a.words == b.words
    assert a.lane == b.lane
    assert a.state_count == b.state_count
    assert a.alphabet_size == b.alphabet_size
    assert a.memory_bytes == b.memory_bytes


class TestSerialization:
    @_slow
    @given(_words, _haystack)
    def test_to_bytes_round_trip(self, words, text):
        auto = PackedAutomaton(words)
        restored = PackedAutomaton.from_bytes(auto.to_bytes())
        _same_tables(auto, restored)
        assert restored.find(text) == auto.find(text)

    @_slow
    @given(_words, _haystack)
    def test_pickle_round_trip(self, words, text):
        auto = PackedAutomaton(words)
        restored = pickle.loads(pickle.dumps(auto))
        _same_tables(auto, restored)
        assert restored.find(text) == auto.find(text)

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError):
            PackedAutomaton.from_bytes(b"not a blob")
        with pytest.raises(ValueError):
            PackedAutomaton.from_bytes(b"PKAC" + b"\x00" * 10)
        blob = PackedAutomaton(["aa"]).to_bytes()
        with pytest.raises(ValueError, match="format version 1"):
            PackedAutomaton.from_bytes(blob[:4] + b"\x01" + blob[5:])

    def test_round_trip_preserves_batch_lane(self):
        few = [f"w{i:04d}" for i in range(AUTOMATON_THRESHOLD - 1)]
        walk = few + [f"x{i:04d}" for i in range(AUTOMATON_THRESHOLD)]
        texts = ["w0001 x", "y x0002 w0190"]
        for vocabulary, lane in ((few, "substring"), (walk, "walk")):
            auto = PackedAutomaton(vocabulary)
            restored = pickle.loads(pickle.dumps(auto))
            assert auto.lane == restored.lane == lane
            expected = [_reference(vocabulary, t) for t in texts]
            assert restored.find_batch(texts) == auto.find_batch(texts) == expected

    def test_only_the_walk_lane_builds_and_ships_tables(self):
        few = [f"w{i:04d}" for i in range(AUTOMATON_THRESHOLD - 1)]
        walk = few + ["w9999"]
        texts = ["w0001 x", "y w0190 w9999"]
        auto = PackedAutomaton(few)
        assert auto.lane == "substring" and auto.state_count == 0
        empty_blob = auto.to_bytes()
        expected = [_reference(few, t) for t in texts]
        encoded = [t.encode() for t in texts]
        # a direct walk builds the tables on first call ...
        assert auto._find_walk(encoded) == expected
        assert auto.state_count > 0
        # ... and serialization still ships none
        assert auto.to_bytes() == empty_blob
        assert PackedAutomaton.from_bytes(empty_blob).find_batch(texts) == expected
        auto = PackedAutomaton(walk)
        assert auto.lane == "walk" and auto.state_count > 0
        assert PackedAutomaton.from_bytes(auto.to_bytes()).state_count == auto.state_count

    def test_older_blob_with_tables_for_another_lane_loads(self):
        """Blobs written before lazy tables carry a DFA for every lane."""
        vocabulary = [f"w{i:04d}" for i in range(AUTOMATON_THRESHOLD - 1)]
        auto = PackedAutomaton(vocabulary)
        auto._find_walk([])
        auto.lane = "walk"  # serialize the way every lane used to
        older = auto.to_bytes()
        auto.lane = "substring"
        restored = PackedAutomaton.from_bytes(older)
        assert restored.lane == "substring" and restored.state_count == 0
        texts = ["w0001 x", "w0190"]
        assert restored.find_batch(texts) == [_reference(vocabulary, t) for t in texts]

    def test_older_walk_blob_without_tables_builds_them(self):
        """192-2,048-word vocabularies once took a lane that shipped no
        tables; such a blob now selects the walk lane and must still scan."""
        vocabulary = [f"w{i:04d}" for i in range(300)]
        auto = PackedAutomaton(vocabulary)
        auto.lane = "substring"  # serialize as that lane did: no tables
        older = auto.to_bytes()
        auto.lane = "walk"
        restored = PackedAutomaton.from_bytes(older)
        assert restored.lane == "walk"
        _same_tables(auto, restored)
        texts = ["w0001 x", "y w0299 w0150", ""]
        expected = [_reference(vocabulary, t) for t in texts]
        assert restored.find_batch(texts) == expected
        assert pickle.loads(pickle.dumps(restored)).find_batch(texts) == expected


# -- whole-index / registry round trips ---------------------------------------------

_RULES = """
rule uses_exec {
    strings:
        $a = "exec(base64"
        $b = "compile(" nocase
    condition:
        any of them
}

rule c2_beacon {
    strings:
        $a = /https?:..evil[0-9]+\\.example/
        $b = "beacon_interval"
    condition:
        all of them
}

rule strasse_family {
    strings:
        $a = "straße" nocase
    condition:
        $a
}
"""

_HAYSTACKS = [
    "import base64; exec(base64.b64decode(x))",
    "url = 'https://evil42.example'; beacon_interval = 30",
    "harmless package with a STRASSE address",
    "",
]


class TestIndexRoundTrips:
    def _index(self) -> RuleIndex:
        return RuleIndex(yara=compile_source(_RULES))

    def test_rule_index_pickle_identical_hits_and_stats(self):
        index = self._index()
        restored = pickle.loads(pickle.dumps(index))
        for text in _HAYSTACKS:
            folded = text.casefold()
            assert restored.hits(folded) == index.hits(folded)
            assert restored.yara_rule_names(text) == index.yara_rule_names(text)
        assert restored.stats() == index.stats()

    def test_rule_index_batch_parity_after_pickle(self):
        index = self._index()
        restored = pickle.loads(pickle.dumps(index))
        folded = [t.casefold() for t in _HAYSTACKS]
        assert restored.hits_batch(folded) == index.hits_batch(folded)

    def test_ruleset_version_to_bytes_round_trip(self):
        registry = RulesetRegistry()
        version = registry.publish(yara=compile_source(_RULES), label="pub")
        restored = RulesetVersion.from_bytes(version.to_bytes())
        assert restored.version == version.version
        assert restored.index.stats() == version.index.stats()
        for text in _HAYSTACKS:
            assert restored.index.yara_rule_names(text) == (
                version.index.yara_rule_names(text)
            )

    def test_ruleset_version_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError):
            RulesetVersion.from_bytes(b"junk")

    def test_stats_report_packed_tables(self):
        stats = self._index().stats()
        assert stats.packed_mode == "dense"
        assert stats.packed_memory_bytes > 0
