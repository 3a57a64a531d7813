"""The rule index's literal-atom matcher.

:class:`PackedAutomaton` reports, for each text of a batch, the ids of every
vocabulary word occurring in it (plain substring semantics).  It runs one of
three lanes, fixed at construction from the vocabulary alone:

``substring``
    Fewer than :data:`AUTOMATON_THRESHOLD` words: one C-speed ``word in
    text`` per word beats walking any pure-Python automaton.

``joined``
    While the vocabulary groups into at most :data:`BATCH_GUARD_LIMIT` guard
    prefixes and holds at most :data:`BATCH_WORD_LIMIT` words: the batch is
    joined with a separator byte no word contains, so each guard prefix
    costs one C-speed ``bytes.find`` over the whole batch and a match can
    never span two texts (it would have to contain the separator).  Each
    guard hit is verified per member at that exact position.

``walk``
    Otherwise each text walks a dense DFA: the goto/fail trie expanded over a
    *compressed* alphabet (only bytes that occur in some word get a symbol;
    every other byte maps to symbol 0, which always leads back to the root).
    State ids are stored pre-multiplied by the alphabet size, so the inner
    loop is ``state = delta[state + symbol]`` on one flat ``array('i')``.
    Output states are renumbered to the *end* of the id space, so "did a word
    end here" is a single ``state >= boundary`` comparison.

The tables serialize: :meth:`to_bytes` emits a self-describing blob,
:meth:`from_bytes` restores it without re-running construction, and
``pickle`` round-trips via the same blob — that is what lets a process-pool
shard worker or a durable registry attach to published tables instead of
recompiling them.  The lane is derived from the restored vocabulary, so it
is never stored.

Correctness notes (each lane is property-tested against a per-word oracle):

* Words and haystacks are encoded UTF-8 with ``surrogatepass`` (casefolded
  *str* produced upstream may contain lone surrogates).  UTF-8 is
  self-synchronizing, so a byte-level substring match is exactly a
  character-level substring match — no false positives from matches starting
  mid-character.
* Callers fold *then* encode.  The matcher never maps byte offsets back to
  the original string, so casefold length changes (``ß`` → ``ss``) are safe.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from collections import deque
from typing import Iterable, List, Sequence, Set, Union

__all__ = [
    "PackedAutomaton",
    "AUTOMATON_THRESHOLD",
    "BATCH_GUARD_LIMIT",
    "BATCH_WORD_LIMIT",
    "GUARD_PREFIX_LENGTH",
    "SUBSTRING_LANE",
    "JOINED_LANE",
    "WALK_LANE",
]

#: Below this many words, per-word ``bytes.find`` (C speed) beats the DFA
#: walk; the throughput bench's crossover sweep puts the packed walk's
#: crossover near ~190 words.
AUTOMATON_THRESHOLD = 192

#: The joined lane needs the vocabulary to group into at most this many guard
#: prefixes; beyond that the per-text DFA walk is cheaper (one C ``find`` per
#: guard costs ~1 pass each).
BATCH_GUARD_LIMIT = 384

#: ...and to hold at most this many words: verification loops over a guard's
#: members at every guard occurrence, so huge vocabularies behind few guards
#: pay more in verification than the DFA walk costs (measured crossover ~2k
#: words in the throughput bench sweep).
BATCH_WORD_LIMIT = 2048

#: Guard prefix length (bytes) for the joined lane.  Words shorter than this
#: are their own guard and need no verification step.
GUARD_PREFIX_LENGTH = 8

SUBSTRING_LANE = "substring"
JOINED_LANE = "joined"
WALK_LANE = "walk"

#: Joins the joined lane's texts.  0xFF never occurs in UTF-8 (surrogatepass
#: included), so no encoded word contains it.
_SEPARATOR = b"\xff"

_MAGIC = b"PKAC"
_FORMAT_VERSION = 2

# magic, version, array itemsize, alphabet size, states, out_first, words
_HEADER = struct.Struct("<4sBB2xiiii")


def _encode(text: Union[str, bytes]) -> bytes:
    if isinstance(text, bytes):
        return text
    return text.encode("utf-8", "surrogatepass")


class PackedAutomaton:
    """Multi-pattern literal matcher over flat packed byte-level tables.

    ``find_batch(texts)`` returns, per text, the ids (indices into
    ``words``) of every word occurring in it.  Inputs are matched exactly as
    given — casefolding is the caller's convention, applied before encoding.
    """

    def __init__(self, words: Iterable[str]) -> None:
        self.words: list[str] = []
        seen: dict[str, int] = {}
        for word in words:
            if not word:
                raise ValueError("cannot index an empty atom")
            if word not in seen:
                seen[word] = len(self.words)
                self.words.append(word)
        self._build()

    # -- construction -------------------------------------------------------------
    def _build(self) -> None:
        encoded = [w.encode("utf-8", "surrogatepass") for w in self.words]
        self._encoded = encoded

        # byte trie (dict form, construction only)
        goto: list[dict[int, int]] = [{}]
        out: list[list[int]] = [[]]
        for word_id, word in enumerate(encoded):
            state = 0
            for byte in word:
                nxt = goto[state].get(byte)
                if nxt is None:
                    nxt = len(goto)
                    goto[state][byte] = nxt
                    goto.append({})
                    out.append([])
                state = nxt
            out[state].append(word_id)

        # BFS failure links with merged outputs (a state reports every word
        # ending at it, proper suffixes included)
        fail = [0] * len(goto)
        order: list[int] = [0]
        queue: deque[int] = deque(goto[0].values())
        while queue:
            state = queue.popleft()
            order.append(state)
            for byte, nxt in goto[state].items():
                queue.append(nxt)
                fallback = fail[state]
                while fallback and byte not in goto[fallback]:
                    fallback = fail[fallback]
                target = goto[fallback].get(byte, 0)
                fail[nxt] = 0 if target == nxt else target
                out[nxt].extend(out[fail[nxt]])

        # compressed alphabet: only bytes used by some word get a symbol;
        # everything else maps to symbol 0, which no state transitions on
        used = sorted({b for w in encoded for b in w})
        symbol = {b: i + 1 for i, b in enumerate(used)}
        alphabet = len(used) + 1
        self.alphabet_size = alphabet
        self._translate = bytes(symbol.get(b, 0) for b in range(256))

        # renumber states: non-output states first (root stays 0), output
        # states at the end, both in BFS order — "has output" becomes a
        # single ``state >= out_first`` comparison in the walk
        n_states = len(goto)
        new_id = [0] * n_states
        non_out = [s for s in order if not out[s]]
        with_out = [s for s in order if out[s]]
        assert non_out and non_out[0] == 0, "root can never be an output state"
        for i, s in enumerate(non_out + with_out):
            new_id[s] = i
        self.state_count = n_states
        self._out_first = len(non_out)

        # flat merged output lists, indexed by (new_id - out_first)
        out_offsets = array("i", [0] * (len(with_out) + 1))
        out_words = array("i")
        for i, s in enumerate(with_out):
            out_words.extend(out[s])
            out_offsets[i + 1] = len(out_words)
        self._out_offsets = out_offsets
        self._out_words = out_words

        # full-DFA expansion: failure links folded into one flat table.  Rows
        # hold *pre-multiplied* successor ids so the walk needs no multiply.
        # Each state's row starts as a copy of its failure state's (already
        # final, BFS guarantees shallower-first) row — a C-speed slice copy —
        # then its own children overwrite their symbols.
        delta = array("i", [0]) * (n_states * alphabet)
        translate = self._translate
        for state in order:
            base = new_id[state] * alphabet
            if state:
                fbase = new_id[fail[state]] * alphabet
                delta[base : base + alphabet] = delta[fbase : fbase + alphabet]
            for byte, nxt in goto[state].items():
                delta[base + translate[byte]] = new_id[nxt] * alphabet
        self._delta = delta
        self._finalize()

    def _finalize(self) -> None:
        """Derived lookup structures and the lane, rebuilt on every load."""
        # output tuples keyed by the walk's raw (pre-multiplied) state value
        # — hits are rare, so a dict probe per hit is fine
        offsets, flat = self._out_offsets, self._out_words
        step = self.alphabet_size
        self._out_boundary = boundary = self._out_first * step
        self._out_by_state = {
            boundary + i * step: tuple(flat[offsets[i] : offsets[i + 1]])
            for i in range(len(offsets) - 1)
        }
        # guard groups for the joined lane: words bucketed by their first
        # GUARD_PREFIX_LENGTH bytes; one C find per guard, then per-text
        # verification of the longer members
        guards: dict[bytes, list[int]] = {}
        for word_id, word in enumerate(self._encoded):
            guards.setdefault(word[:GUARD_PREFIX_LENGTH], []).append(word_id)
        self._guards = guards
        if len(self.words) < AUTOMATON_THRESHOLD:
            self.lane = SUBSTRING_LANE
        elif len(guards) <= BATCH_GUARD_LIMIT and len(self.words) <= BATCH_WORD_LIMIT:
            self.lane = JOINED_LANE
        else:
            self.lane = WALK_LANE

    # -- introspection ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.words)

    @property
    def guard_count(self) -> int:
        return len(self._guards)

    @property
    def memory_bytes(self) -> int:
        """Total size of the packed tables (not the word list)."""
        arrays = (self._out_offsets, self._out_words, self._delta)
        return len(self._translate) + sum(len(a) * a.itemsize for a in arrays)

    # -- scanning -----------------------------------------------------------------
    def find(self, text: Union[str, bytes]) -> Set[int]:
        """Ids of every word occurring in ``text``: a batch of one."""
        return self.find_batch([text])[0]

    def find_batch(self, texts: Sequence[Union[str, bytes]]) -> List[Set[int]]:
        """Per-text hit sets for a whole batch, through this vocabulary's lane.

        Accepts ``str`` or pre-encoded UTF-8 ``bytes`` haystacks.  Every lane
        returns the same sets; only the cost of reaching them differs.
        """
        encoded = [_encode(t) for t in texts]
        if self.lane == SUBSTRING_LANE:
            return self._find_substring(encoded)
        if self.lane == JOINED_LANE:
            return self._find_joined(encoded)
        return self._find_walk(encoded)

    def _find_substring(self, encoded: Sequence[bytes]) -> List[Set[int]]:
        words = self._encoded
        return [{i for i, word in enumerate(words) if word in data} for data in encoded]

    def _find_walk(self, encoded: Sequence[bytes]) -> List[Set[int]]:
        delta = self._delta
        boundary = self._out_boundary
        outputs = self._out_by_state
        translate = self._translate
        results: List[Set[int]] = []
        for data in encoded:
            hits: set[int] = set()
            pending = len(self.words)
            state = 0
            for sym in data.translate(translate):
                state = delta[state + sym]
                if state >= boundary:
                    for word_id in outputs[state]:
                        if word_id not in hits:
                            hits.add(word_id)
                            pending -= 1
                    if not pending:
                        break
            results.append(hits)
        return results

    def _find_joined(self, encoded: Sequence[bytes]) -> List[Set[int]]:
        joined = _SEPARATOR.join(encoded)
        ends: list[int] = []
        offset = 0
        for data in encoded:
            offset += len(data)
            ends.append(offset)
            offset += 1  # separator
        results: List[Set[int]] = [set() for _ in encoded]
        find = joined.find
        startswith = joined.startswith
        guard_len = GUARD_PREFIX_LENGTH
        words = self._encoded
        for guard, members in self._guards.items():
            pos = find(guard)
            while pos != -1:
                text_index = bisect_right(ends, pos)
                hits = results[text_index]
                # every occurrence of a member starts with its guard, so an
                # exact-position ``startswith`` decides each member at this
                # occurrence — never a full-text scan per member (guards can
                # be common English prefixes shared by thousands of atoms)
                matched = 0
                for word_id in members:
                    if word_id in hits:
                        matched += 1
                    else:
                        word = words[word_id]
                        # a member no longer than the guard IS the guard
                        if len(word) <= guard_len or startswith(word, pos):
                            hits.add(word_id)
                            matched += 1
                if matched == len(members):
                    # all members hit in this text; skip to the next text
                    pos = find(guard, ends[text_index] + 1)
                else:
                    pos = find(guard, pos + 1)
        return results

    # -- serialization ------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Self-describing blob: header, word list, alphabet map, packed tables."""
        header = _HEADER.pack(
            _MAGIC,
            _FORMAT_VERSION,
            self._delta.itemsize,
            self.alphabet_size,
            self.state_count,
            self._out_first,
            len(self.words),
        )
        parts = [header]
        word_blob = bytearray()
        for word in self._encoded:
            word_blob += struct.pack("<i", len(word))
            word_blob += word
        parts.append(struct.pack("<i", len(word_blob)))
        parts.append(bytes(word_blob))
        parts.append(self._translate)
        for arr in (self._out_offsets, self._out_words, self._delta):
            raw = arr.tobytes()
            parts.append(struct.pack("<i", len(raw)))
            parts.append(raw)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PackedAutomaton":
        """Restore published tables without re-running construction.

        On an array-itemsize mismatch (tables built on a platform with a
        different ``array('i')`` width) the automaton is rebuilt from the
        word list instead — slower, never wrong.
        """
        if len(blob) < _HEADER.size or blob[:4] != _MAGIC:
            raise ValueError("not a PackedAutomaton blob")
        (
            _magic,
            version,
            itemsize,
            alphabet,
            states,
            out_first,
            n_words,
        ) = _HEADER.unpack_from(blob, 0)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported PackedAutomaton format version {version}")
        pos = _HEADER.size
        (word_blob_len,) = struct.unpack_from("<i", blob, pos)
        pos += 4
        word_end = pos + word_blob_len
        encoded: list[bytes] = []
        while pos < word_end:
            (wlen,) = struct.unpack_from("<i", blob, pos)
            pos += 4
            encoded.append(blob[pos : pos + wlen])
            pos += wlen
        if len(encoded) != n_words:
            raise ValueError("corrupt PackedAutomaton blob: word count mismatch")
        words = [w.decode("utf-8", "surrogatepass") for w in encoded]
        translate = blob[pos : pos + 256]
        pos += 256
        raws: list[bytes] = []
        for _ in range(3):
            (raw_len,) = struct.unpack_from("<i", blob, pos)
            pos += 4
            raws.append(blob[pos : pos + raw_len])
            pos += raw_len

        if itemsize != array("i").itemsize:
            return cls(words)

        def load(raw: bytes) -> array:
            arr = array("i")
            arr.frombytes(raw)
            return arr

        self = cls.__new__(cls)
        self.words = words
        self._encoded = encoded
        self.alphabet_size = alphabet
        self.state_count = states
        self._out_first = out_first
        self._translate = translate
        self._out_offsets, self._out_words, self._delta = (load(raw) for raw in raws)
        self._finalize()
        return self

    def __reduce__(self):
        return (PackedAutomaton.from_bytes, (self.to_bytes(),))
