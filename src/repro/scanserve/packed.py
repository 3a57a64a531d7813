"""The rule index's literal-atom matcher.

:class:`PackedAutomaton` reports, for each text of a batch, the ids of every
vocabulary word occurring in it (plain substring semantics).  Its lane is
fixed at construction from the vocabulary alone:

``substring``
    Fewer than :data:`AUTOMATON_THRESHOLD` words: one C-speed ``word in
    text`` per word beats walking any pure-Python automaton.

``walk``
    Otherwise the batch walks a dense DFA, built only for walk vocabularies:
    the goto/fail trie expanded over a *compressed* alphabet (only bytes
    that occur in some word get a symbol; every other byte maps to symbol
    0, which always leads back to the root).  State ids are stored
    pre-multiplied by the alphabet size, so one step is ``state =
    delta[state + symbol]`` on one flat ``array('i')``; output states come
    last, so "did a word end here" is one ``state >= boundary`` comparison.
    A cost model (:func:`_segments_pay`) keeps small inputs on one
    pure-Python step per byte (:meth:`~PackedAutomaton._walk_bytes`).
    Larger batches step in lockstep (:meth:`~PackedAutomaton._walk_segments`):
    their bytes are laid end to end with a symbol-0 gap after each text, so
    no match spans two texts, and cut into segments that all advance one
    byte per numpy gather.  A segment starts at the root ``m - 1`` bytes
    (``m`` the longest word) before the first byte it owns.  A DFA state is
    the longest suffix read that prefixes some word, at most ``m`` bytes,
    so from that byte on each segment's state, and so its hits, are exact.

The tables serialize: :meth:`to_bytes` emits a self-describing blob (with
empty DFA tables in the substring lane), :meth:`from_bytes` restores it
without re-running construction, and ``pickle`` round-trips via the same
blob — that is what lets a process-pool shard worker or a durable registry
attach to published tables instead of recompiling them.  The lane is
derived from the restored vocabulary, so it is never stored.

Correctness notes (each lane and both walks are property-tested against a
per-word oracle):

* Words and haystacks are encoded UTF-8 with ``surrogatepass`` (casefolded
  *str* produced upstream may contain lone surrogates).  UTF-8 is
  self-synchronizing, so a byte-level substring match is exactly a
  character-level substring match — no false positives from matches starting
  mid-character.
* Callers fold *then* encode.  The matcher never maps byte offsets back to
  the original string, so casefold length changes (``ß`` → ``ss``) are safe.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections import deque
from itertools import accumulate
from typing import Iterable, List, Sequence, Set, Union

import numpy as np

__all__ = ["PackedAutomaton", "AUTOMATON_THRESHOLD", "SUBSTRING_LANE", "WALK_LANE"]

#: Below this many words, per-word ``bytes.find`` (C speed) beat the per-byte
#: DFA walk in the throughput bench's crossover sweep (crossover ~190 words).
#: The lockstep walk beats it on batches at every size that sweep covers (64
#: words up); lowering the threshold waits for a measured end-to-end gain.
AUTOMATON_THRESHOLD = 192

SUBSTRING_LANE = "substring"
WALK_LANE = "walk"

# The walk's cost model, measured on registry-scale vocabularies (2 vCPUs,
# Python 3.11, numpy 2.4): a per-byte step costs about _BYTE_NS; a lockstep
# step costs about _STEP_NS plus _SEGMENT_NS per segment it advances.
_BYTE_NS = 50
_STEP_NS = 3500
_SEGMENT_NS = 3
#: Shortest segment: keeps the two per-segment state arrays (4-byte ints)
#: at no more than 1/8 of the batch's bytes.
_MIN_SEGMENT = 64

_MAGIC = b"PKAC"
_FORMAT_VERSION = 2

# magic, version, array itemsize, alphabet size, states, out_first, words
_HEADER = struct.Struct("<4sBB2xiiii")


def _segment_length(total: int, warm: int) -> int:
    """Bytes each lockstep segment owns, for ``total`` laid-out bytes and
    ``warm`` warm-up bytes per segment.

    ``(warm + L)`` steps over ``total / L`` segments cost
    ``(warm + L) * (_STEP_NS + _SEGMENT_NS * total / L)``, least at
    ``L = sqrt(warm * total * _SEGMENT_NS / _STEP_NS)``.
    """
    return max(_MIN_SEGMENT, math.isqrt(warm * total * _SEGMENT_NS // _STEP_NS))


def _segments_pay(total: int, warm: int) -> bool:
    """Whether the cost model puts the lockstep walk below the per-byte one."""
    length = _segment_length(total, warm)
    segments = -(-total // length)
    return (warm + length) * (_STEP_NS + _SEGMENT_NS * segments) < _BYTE_NS * total


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
        self._encoded = [w.encode("utf-8", "surrogatepass") for w in self.words]
        self._finalize()
        if self.lane == WALK_LANE:
            self._build_tables()

    # -- construction -------------------------------------------------------------
    def _finalize(self) -> None:
        """The lane, derived from the words on every load.

        The dense DFA tables start absent: only the walk lane reads them, so
        only construction / :meth:`from_bytes` on a walk vocabulary, or a
        direct :meth:`_find_walk` call, builds them.
        """
        self.lane = SUBSTRING_LANE if len(self.words) < AUTOMATON_THRESHOLD else WALK_LANE
        self._warm = max(map(len, self._encoded), default=1) - 1
        self.alphabet_size = 0
        self.state_count = 0
        self._out_first = 0
        self._translate = self._out_offsets = self._out_words = self._delta = None

    def _build_tables(self) -> None:
        """The walk lane's dense DFA over this vocabulary."""
        encoded = self._encoded

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
        self._index_outputs()

    def _index_outputs(self) -> None:
        """Output tuples keyed by the walk's raw (pre-multiplied) state value
        — hits are rare, so a dict probe per hit is fine."""
        offsets, flat = self._out_offsets, self._out_words
        step = self.alphabet_size
        self._out_boundary = boundary = self._out_first * step
        self._out_by_state = {
            boundary + i * step: tuple(flat[offsets[i] : offsets[i + 1]])
            for i in range(len(offsets) - 1)
        }

    # -- introspection ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.words)

    @property
    def memory_bytes(self) -> int:
        """Size of what the lanes read: the encoded words, plus the walk
        lane's translate map and DFA arrays once built."""
        size = sum(len(word) for word in self._encoded)
        if self._delta is not None:
            arrays = (self._out_offsets, self._out_words, self._delta)
            size += len(self._translate) + sum(len(a) * a.itemsize for a in arrays)
        return size

    # -- scanning -----------------------------------------------------------------
    def find(self, text: Union[str, bytes]) -> Set[int]:
        """Ids of every word occurring in ``text``: a batch of one."""
        return self.find_batch([text])[0]

    def find_batch(self, texts: Sequence[Union[str, bytes]]) -> List[Set[int]]:
        """Per-text hit sets for a whole batch, through this vocabulary's lane.

        Accepts ``str`` or pre-encoded UTF-8 ``bytes`` haystacks.  Both lanes
        return the same sets; only the cost of reaching them differs.
        """
        encoded = [
            t if isinstance(t, bytes) else t.encode("utf-8", "surrogatepass") for t in texts
        ]
        if self.lane == SUBSTRING_LANE:
            return self._find_substring(encoded)
        return self._find_walk(encoded)

    def _find_substring(self, encoded: Sequence[bytes]) -> List[Set[int]]:
        words = self._encoded
        return [{i for i, word in enumerate(words) if word in data} for data in encoded]

    def _find_walk(self, encoded: Sequence[bytes]) -> List[Set[int]]:
        """The walk lane: per byte or in lockstep, as the cost model says."""
        if self._delta is None:  # a substring vocabulary, walked directly
            self._build_tables()
        total = sum(len(data) + 1 for data in encoded)  # each text and its gap
        if _segments_pay(total, self._warm):
            return self._walk_segments(encoded)
        return self._walk_bytes(encoded)

    def _walk_bytes(self, encoded: Sequence[bytes]) -> List[Set[int]]:
        """One pure-Python DFA step per byte of each text."""
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

    def _walk_segments(self, encoded: Sequence[bytes]) -> List[Set[int]]:
        """Every segment of the laid-out batch steps at once (module docstring).

        Transient memory stays near the batch's byte count: one padded
        buffer of translated bytes, read through a strided view, and two
        state arrays of one int per segment.
        """
        if not encoded:
            return []
        warm = self._warm
        starts = [0, *accumulate(len(data) + 1 for data in encoded)]  # a text, then its gap
        total = starts[-1]
        length = _segment_length(total, warm)
        segments = -(-total // length)
        # warm leading zeros (symbol 0 keeps the root), then each text's
        # symbols, each followed by its gap; zeros pad the last segment
        buffer = bytearray(warm + segments * length)
        translate = self._translate
        for start, data in zip(starts, encoded):
            buffer[warm + start : warm + start + len(data)] = data.translate(translate)
        # column j holds byte j of every segment's walk, warm-up first
        columns = np.ndarray((warm + length, segments), np.uint8, buffer, strides=(1, length))
        delta = np.frombuffer(self._delta, dtype=f"i{self._delta.itemsize}")
        state = np.zeros(segments, delta.dtype)
        index = np.empty_like(state)
        boundary = self._out_boundary
        # per hit: its offset in the laid-out batch and its output state
        positions: list[np.ndarray] = []
        outputs: list[np.ndarray] = []
        for step in range(warm + length):
            np.add(state, columns[step], out=index)
            # a state plus a symbol is always in range; "clip" skips the
            # bounds-checked copy that "raise" makes when given out=
            np.take(delta, index, out=state, mode="clip")
            if step >= warm and state.max() >= boundary:
                owners = np.flatnonzero(state >= boundary)
                positions.append(owners * length + (step - warm))
                outputs.append(state[owners])
        results: List[Set[int]] = [set() for _ in encoded]
        if positions:
            texts = np.searchsorted(starts, np.concatenate(positions), side="right") - 1
            span = len(delta)
            keys = texts * span + np.concatenate(outputs).astype(np.int64)
            words = self._out_by_state
            for key in np.unique(keys).tolist():  # each (text, state) once
                results[key // span].update(words[key % span])
        return results

    # -- serialization ------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Self-describing blob: header, word list, alphabet map, packed tables.

        Only the walk lane ships its tables; the substring lane writes empty
        ones (zero states), even after a direct :meth:`_find_walk` built them.
        """
        walk = self.lane == WALK_LANE
        header = _HEADER.pack(
            _MAGIC,
            _FORMAT_VERSION,
            array("i").itemsize,
            self.alphabet_size if walk else 0,
            self.state_count if walk else 0,
            self._out_first if walk else 0,
            len(self.words),
        )
        parts = [header]
        word_blob = bytearray()
        for word in self._encoded:
            word_blob += struct.pack("<i", len(word))
            word_blob += word
        parts.append(struct.pack("<i", len(word_blob)))
        parts.append(bytes(word_blob))
        if walk:
            parts.append(self._translate)
            raws = [a.tobytes() for a in (self._out_offsets, self._out_words, self._delta)]
        else:
            parts.append(bytes(256))
            raws = [b"", b"", b""]
        for raw in raws:
            parts.append(struct.pack("<i", len(raw)))
            parts.append(raw)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PackedAutomaton":
        """Restore published tables without re-running construction.

        On an array-itemsize mismatch (tables built on a platform with a
        different ``array('i')`` width) the automaton is rebuilt from the
        word list instead — slower, never wrong.  So is a walk vocabulary
        whose blob carries no tables: older blobs gave 192–2,048-word
        vocabularies a lane that needed none.
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
        self._finalize()
        if self.lane != WALK_LANE:
            return self  # an older blob may carry tables here; nothing reads them
        if not states:
            self._build_tables()
            return self
        self.alphabet_size = alphabet
        self.state_count = states
        self._out_first = out_first
        self._translate = translate
        self._out_offsets, self._out_words, self._delta = (load(raw) for raw in raws)
        self._index_outputs()
        return self

    def __reduce__(self):
        return (PackedAutomaton.from_bytes, (self.to_bytes(),))
