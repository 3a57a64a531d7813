"""Atom matcher parity: every lane of ``PackedAutomaton`` vs a per-word oracle.

The contract is exact: for every vocabulary and every batch of haystacks,
each lane (per-word substring, joined guard-prefix, dense DFA walk) returns
what the test-local ``_reference`` oracle returns.  No option forces a lane,
so the tests call the lane methods directly; the lane ``find_batch`` picks
follows the vocabulary alone.  Serialization (``to_bytes``/``from_bytes``
and pickle) must restore tables that produce identical hit sets, lane and
stats without re-running construction.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scanserve import PackedAutomaton, RuleIndex
from repro.scanserve.packed import (
    AUTOMATON_THRESHOLD,
    BATCH_GUARD_LIMIT,
    BATCH_WORD_LIMIT,
    GUARD_PREFIX_LENGTH,
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
    """``{lane: per-text hit sets}`` with every lane run on ``texts``."""
    encoded = [t.encode("utf-8", "surrogatepass") for t in texts]
    return {
        "substring": auto._find_substring(encoded),
        "joined": auto._find_joined(encoded),
        "walk": auto._find_walk(encoded),
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
    def test_joined_lane_matches_walk_lane(self, words, texts):
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
        # "ab" + "cd" adjacent in the joined buffer must not fire
        for hits in _each_lane(auto, ["ab", "cd"]).values():
            assert hits == [set(), set()]
        # nor may a separator byte already inside a (non-UTF-8) text
        assert auto._find_joined([b"ab\xffcd", b"abcd"]) == [set(), {0}]

    def test_long_words_verified_per_occurrence(self):
        # guard prefix shared by many members, only some of which occur
        long_a = "registry_" + "a" * GUARD_PREFIX_LENGTH
        long_b = "registry_" + "b" * GUARD_PREFIX_LENGTH
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


# -- lane selection -----------------------------------------------------------------


class TestLaneSelection:
    def test_lane_follows_the_vocabulary(self):
        few = [f"w{i:04d}" for i in range(AUTOMATON_THRESHOLD - 1)]
        assert PackedAutomaton([]).lane == "substring"
        assert PackedAutomaton(few).lane == "substring"
        # one more word crosses the threshold; each short word is its own guard
        assert PackedAutomaton(few + ["w9999"]).lane == "joined"
        many_guards = [f"w{i:04d}" for i in range(BATCH_GUARD_LIMIT + 1)]
        assert PackedAutomaton(many_guards).lane == "walk"
        # one shared guard prefix, but more words than the joined lane verifies
        one_guard = [f"registry_{i}" for i in range(BATCH_WORD_LIMIT + 1)]
        auto = PackedAutomaton(one_guard)
        assert auto.guard_count == 1 and auto.lane == "walk"


# -- serialization ------------------------------------------------------------------


def _same_tables(a: PackedAutomaton, b: PackedAutomaton) -> None:
    assert a.words == b.words
    assert a.lane == b.lane
    assert a.state_count == b.state_count
    assert a.alphabet_size == b.alphabet_size
    assert a.guard_count == b.guard_count
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
        joined = [f"w{i:04d}" for i in range(AUTOMATON_THRESHOLD)]
        walk = joined + [f"x{i:04d}" for i in range(BATCH_GUARD_LIMIT)]
        texts = ["w0001 x", "y x0002 w0191"]
        for vocabulary, lane in ((joined, "joined"), (walk, "walk")):
            auto = PackedAutomaton(vocabulary)
            restored = pickle.loads(pickle.dumps(auto))
            assert auto.lane == restored.lane == lane
            expected = [_reference(vocabulary, t) for t in texts]
            assert restored.find_batch(texts) == auto.find_batch(texts) == expected

    def test_only_the_walk_lane_builds_and_ships_tables(self):
        few = [f"w{i:04d}" for i in range(AUTOMATON_THRESHOLD - 1)]
        joined = few + ["w9999"]
        walk = [f"w{i:04d}" for i in range(BATCH_GUARD_LIMIT + 1)]
        texts = ["w0001 x", "y w0191 w0384"]
        for vocabulary, lane in ((few, "substring"), (joined, "joined")):
            auto = PackedAutomaton(vocabulary)
            assert auto.lane == lane and auto.state_count == 0
            empty_blob = auto.to_bytes()
            expected = [_reference(vocabulary, t) for t in texts]
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
        vocabulary = [f"w{i:04d}" for i in range(AUTOMATON_THRESHOLD)]
        auto = PackedAutomaton(vocabulary)
        auto._find_walk([])
        auto.lane = "walk"  # serialize the way every lane used to
        older = auto.to_bytes()
        auto.lane = "joined"
        restored = PackedAutomaton.from_bytes(older)
        assert restored.lane == "joined" and restored.state_count == 0
        texts = ["w0001 x", "w0191"]
        assert restored.find_batch(texts) == [_reference(vocabulary, t) for t in texts]


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
        assert stats.batch_guards > 0
