"""Atom-prefilter rule index.

:class:`RuleIndex` extracts literal atoms from a compiled rule set, finds
which atoms occur in a scanned text with one
:class:`repro.scanserve.packed.PackedAutomaton` pass, maps those hits back to
candidate rules and fully evaluates *only* the candidates (plus the fallback
lane of rules that exposed no atoms).  That keeps indexed scanning
bit-for-bit identical to naive scanning while skipping the vast majority of
rule evaluations.

The matcher is compiled once at construction (i.e. at registry publish time)
and picks its lane from the vocabulary alone: per-atom substring scans below
:data:`~repro.scanserve.packed.AUTOMATON_THRESHOLD` atoms, the joined
guard-prefix pass or the dense DFA walk above it.  The whole index pickles,
so shard workers attach to the published tables instead of recompiling them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Union

from repro.scanserve.atoms import (
    DEFAULT_MIN_ATOM_LENGTH,
    RuleAtoms,
    semgrep_rule_atoms,
    yara_rule_atoms,
)
from repro.scanserve.packed import SUBSTRING_LANE, PackedAutomaton
from repro.semgrepx.compiler import CompiledSemgrepRule, CompiledSemgrepRuleSet
from repro.semgrepx.matcher import ScanTarget, SemgrepFinding
from repro.yarax import ast_nodes as yast
from repro.yarax.compiler import CompiledRule, CompiledRuleSet
from repro.yarax.matcher import CompiledString, ConditionEvaluator, RuleMatch

#: Lane label reported by :attr:`RuleIndex.lane`, the ``lane`` span attribute
#: and ``ServiceStats.lanes`` for the matcher's joined and walk lanes; below
#: :data:`~repro.scanserve.packed.AUTOMATON_THRESHOLD` atoms the label is
#: :data:`~repro.scanserve.packed.SUBSTRING_LANE`.
AUTOMATON_LANE = "automaton"


class _LazyConditionEvaluator(ConditionEvaluator):
    """Condition evaluation that only runs the string scans it needs.

    Naive scanning collects *every* occurrence of *every* string before
    evaluating the condition.  Here a string whose gate atom was absent from
    the scanned text is known unmatchable without running its regex at all;
    the remaining strings are probed lazily — an existence check
    (``re.search``, early exit) unless the condition genuinely needs a count.
    Probes are ordered cheapest-first (blocked strings are free ``False``,
    plain literals are C-speed ``in``, regexes last) and results are shared
    across the rules of one package through ``probe_memo`` — registry rule
    sets repeat the same literals and patterns constantly.  The verdict is
    exactly :class:`ConditionEvaluator`'s (corpus- and property-tested);
    only the work to reach it changes.
    """

    def __init__(
        self,
        strings: list[CompiledString],
        data: str,
        blocked: set[str],
        identifiers: Optional[list[str]] = None,
        probe_memo: Optional[dict] = None,
        probe_rank: Optional[dict[str, int]] = None,
    ) -> None:
        if identifiers is None:
            identifiers = [cs.identifier for cs in strings]
        super().__init__(
            matches_by_id={},
            all_identifiers=identifiers,
            data_length=len(data),
        )
        self._strings = {cs.identifier: cs for cs in strings}
        self._data = data
        self._blocked = blocked
        self._memo = probe_memo if probe_memo is not None else {}
        self._rank = probe_rank
        self._exists: dict[str, bool] = {}
        self._counts: dict[str, int] = {}

    def _probe_order(self, identifiers: list[str]) -> list[str]:
        rank = self._rank
        if rank is None:
            return identifiers
        blocked = self._blocked
        return sorted(
            identifiers, key=lambda i: 0 if i in blocked else rank.get(i, 2)
        )

    def _string_exists(self, identifier: str) -> bool:
        cached = self._exists.get(identifier)
        if cached is None:
            if identifier in self._blocked or identifier not in self._strings:
                cached = False
            else:
                compiled = self._strings[identifier]
                plain = compiled._plain_value
                if plain is not None:
                    key = ("p", plain)
                else:
                    regex = compiled._regex
                    key = ("r", regex.pattern, regex.flags)
                cached = self._memo.get(key)
                if cached is None:
                    cached = compiled.search(self._data)
                    self._memo[key] = cached
            self._exists[identifier] = cached
        return cached

    def _string_count(self, identifier: str) -> int:
        cached = self._counts.get(identifier)
        if cached is None:
            if identifier in self._blocked or identifier not in self._strings:
                cached = 0
            else:
                compiled = self._strings[identifier]
                regex = compiled._regex
                key = ("c", regex.pattern, regex.flags)
                cached = self._memo.get(key)
                if cached is None:
                    # same 1000-occurrence cap as CompiledString.find's default
                    cached = len(compiled.find(self._data))
                    self._memo[key] = cached
            self._counts[identifier] = cached
        return cached

    def _eval(self, expr):
        if isinstance(expr, yast.StringRef):
            return self._string_exists(expr.identifier)
        if isinstance(expr, yast.StringCount):
            return self._string_count(expr.identifier)
        return super()._eval(expr)

    def _eval_of(self, expr: yast.OfExpr) -> bool:
        if expr.string_set.them:
            identifiers = list(self.all_identifiers)
        else:
            identifiers = []
            for member in expr.string_set.members:
                if member.endswith("*"):
                    prefix = member[:-1]
                    identifiers.extend(i for i in self.all_identifiers if i.startswith(prefix))
                else:
                    identifiers.append(member)
        total = len(identifiers)
        # probe order never changes the verdict (pure existence), only the
        # expected cost to reach it
        identifiers = self._probe_order(identifiers)
        if expr.quantifier == "any":
            return any(self._string_exists(i) for i in identifiers)
        if expr.quantifier == "all":
            return total > 0 and all(self._string_exists(i) for i in identifiers)
        needed = int(expr.quantifier)
        matched = 0
        for remaining, identifier in zip(range(total, 0, -1), identifiers):
            if matched + remaining < needed:
                break  # cannot reach the quantifier any more
            if self._string_exists(identifier):
                matched += 1
                if matched >= needed:
                    return True
        return matched >= needed


@dataclass
class IndexStats:
    """How much of a rule set the index can prefilter."""

    yara_rules: int = 0
    yara_indexed: int = 0
    semgrep_rules: int = 0
    semgrep_indexed: int = 0
    atoms: int = 0
    automaton_states: int = 0
    lane: str = SUBSTRING_LANE
    packed_mode: str = "dense"  # the only table layout; kept for report readers
    packed_memory_bytes: int = 0
    batch_guards: int = 0

    @property
    def indexed_fraction(self) -> float:
        total = self.yara_rules + self.semgrep_rules
        if not total:
            return 0.0
        return (self.yara_indexed + self.semgrep_indexed) / total


class RuleIndex:
    """Prefilter index over a compiled YARA and/or Semgrep rule set.

    ``match_yara`` / ``match_semgrep`` produce exactly what
    ``CompiledRuleSet.match`` / ``CompiledSemgrepRuleSet.match_target``
    would, in the same order — rules whose atoms did not occur are provably
    unable to fire and are skipped without evaluation.

    The packed atom tables are compiled once here (construction == registry
    publish time) and the whole index pickles, so process-pool shard
    workers receive ready-made tables instead of re-deriving them.

    The scanning entry points accept optional precomputed forms so batch
    callers stop re-folding and re-scanning the same text per engine lane:
    ``folded`` is ``text.casefold()`` and ``hits`` an atom hit set from
    :meth:`hits` / :meth:`hits_batch`.
    """

    def __init__(
        self,
        yara: Optional[CompiledRuleSet] = None,
        semgrep: Optional[CompiledSemgrepRuleSet] = None,
        min_atom_length: int = DEFAULT_MIN_ATOM_LENGTH,
    ) -> None:
        self.yara = yara
        self.semgrep = semgrep
        self.min_atom_length = min_atom_length
        self.rule_atoms: list[RuleAtoms] = []

        vocabulary: dict[str, int] = {}
        # atom id -> rule slots; a slot is ("yara"|"semgrep", position)
        postings: dict[int, list[tuple[str, int]]] = {}
        self._fallback_yara: list[int] = []
        self._fallback_semgrep: list[int] = []

        def register(atoms: RuleAtoms, engine: str, position: int) -> None:
            self.rule_atoms.append(atoms)
            if not atoms.indexable:
                if engine == "yara":
                    self._fallback_yara.append(position)
                else:
                    self._fallback_semgrep.append(position)
                return
            for atom in atoms.atoms:
                atom_id = vocabulary.setdefault(atom, len(vocabulary))
                postings.setdefault(atom_id, []).append((engine, position))

        # per-rule string gates: identifier -> one required (casefolded)
        # literal.  A gated string whose literal is absent from the scanned
        # text cannot match, so its regex is never run (YARA's atom->confirm
        # strategy).  Gates are checked on demand per candidate — only
        # rule-candidacy atoms go through the automaton pass.
        self._yara_gates: list[dict[str, str]] = []
        # per-semgrep-rule required anchor sets (all-of each, any set
        # suffices): a candidate whose sets are all incomplete in the text
        # cannot fire and skips structural matching entirely
        self._semgrep_required: list[tuple[tuple[str, ...], ...]] = []
        # per-rule prebuilt evaluation data: identifier list and probe cost
        # rank (1 = plain literal via C-speed ``in``, 2 = regex), so the
        # lazy evaluator does not re-derive them for every package
        self._yara_eval: list[tuple[list[str], dict[str, int]]] = []

        for position, rule in enumerate(yara.rules if yara is not None else []):
            register(yara_rule_atoms(rule, min_atom_length), "yara", position)
            gates: dict[str, str] = {}
            ranks: dict[str, int] = {}
            identifiers: list[str] = []
            for compiled_string in rule.strings:
                identifiers.append(compiled_string.identifier)
                ranks[compiled_string.identifier] = (
                    1 if compiled_string._plain_value is not None else 2
                )
                string_atoms = compiled_string.atoms(min_atom_length)
                if string_atoms:
                    gates[compiled_string.identifier] = max(
                        string_atoms, key=len
                    ).casefold()
            self._yara_gates.append(gates)
            self._yara_eval.append((identifiers, ranks))
        for position, rule in enumerate(semgrep.rules if semgrep is not None else []):
            atoms = semgrep_rule_atoms(rule, min_atom_length)
            register(atoms, "semgrep", position)
            self._semgrep_required.append(atoms.required_sets)

        self._automaton = PackedAutomaton(vocabulary.keys())
        self._postings = postings
        self._fallback_semgrep_set = frozenset(self._fallback_semgrep)
        # literal -> automaton word id, for gate checks: a gate literal that
        # doubles as a candidacy atom is answered from the automaton's hit
        # set instead of a fresh substring scan
        self._atom_ids: dict[str, int] = {
            word: word_id for word_id, word in enumerate(self._automaton.words)
        }

    # -- atom scanning ------------------------------------------------------------
    def hits(self, folded: str) -> set[int]:
        """Atom hit set for one already-casefolded text."""
        return self._automaton.find(folded)

    def hits_batch(self, folded_texts: Sequence[Union[str, bytes]]) -> List[Set[int]]:
        """Atom hit sets for a batch of already-casefolded texts.

        One batch-amortised pass (see :meth:`PackedAutomaton.find_batch`); feed
        the per-text sets back into the scanning entry points as ``hits=``.
        Accepts pre-encoded UTF-8 ``bytes`` haystacks.
        """
        return self._automaton.find_batch(folded_texts)

    # -- candidate selection ------------------------------------------------------
    def _positions(self, hits: set[int], engine: str, fallback: list[int]) -> list[int]:
        positions = set(fallback)
        for atom_id in hits:
            for posting_engine, position in self._postings.get(atom_id, []):
                if posting_engine == engine:
                    positions.add(position)
        return sorted(positions)

    def candidate_yara_rules(
        self,
        text: str,
        folded: Optional[str] = None,
        hits: Optional[set[int]] = None,
    ) -> list[CompiledRule]:
        """The only YARA rules that can possibly fire on ``text`` (in rule order)."""
        if self.yara is None:
            return []
        if hits is None:
            hits = self._automaton.find(text.casefold() if folded is None else folded)
        rules = self.yara.rules
        return [rules[i] for i in self._positions(hits, "yara", self._fallback_yara)]

    def candidate_semgrep_rules(
        self,
        target: ScanTarget,
        folded: Optional[str] = None,
        hits: Optional[set[int]] = None,
    ) -> list[CompiledSemgrepRule]:
        """The only Semgrep rules that can possibly fire on ``target``.

        Two-stage prefilter: atom candidacy (any representative atom
        occurred), then the *required anchor set* gate — a rule survives
        only when at least one of its firing modes has **all** of its
        anchors present in the text.  Non-indexable rules bypass both.
        """
        if self.semgrep is None:
            return []
        if folded is None:
            folded = target.folded_text
        if hits is None:
            hits = self._automaton.find(folded)
        member_cache: dict[str, bool] = {}

        def present(member: str) -> bool:
            atom_id = self._atom_ids.get(member)
            if atom_id is not None:
                return atom_id in hits
            cached = member_cache.get(member)
            if cached is None:
                cached = member in folded
                member_cache[member] = cached
            return cached

        rules = self.semgrep.rules
        candidates: list[CompiledSemgrepRule] = []
        for position in self._positions(hits, "semgrep", self._fallback_semgrep):
            if position not in self._fallback_semgrep_set:
                required = self._semgrep_required[position]
                if required and not any(
                    all(present(member) for member in alternative)
                    for alternative in required
                ):
                    continue
            candidates.append(rules[position])
        return candidates

    # -- full matching ------------------------------------------------------------
    def _firing_positions(
        self,
        text: str,
        cost_sink=None,
        package: str = "",
        folded: Optional[str] = None,
        hits: Optional[set[int]] = None,
    ) -> list[int]:
        """Positions of the YARA rules whose conditions hold on ``text``.

        Two-stage evaluation: the atom hit set narrows the batch to candidate
        rules, then each candidate's condition is decided by the lazy
        evaluator — strings whose gate literal is absent are unmatchable
        without running their regex, the rest are existence-probed with early
        exit.  String probes are shared across this package's candidates
        (registry rule sets repeat literals and patterns constantly).  The
        verdicts are exactly those of naive scanning.

        ``cost_sink`` (``record(engine, rule_key, seconds, package)``)
        receives the per-candidate evaluation time for telemetry.
        """
        if folded is None:
            folded = text.casefold()
        if hits is None:
            hits = self._automaton.find(folded)
        # gate literals that double as candidacy atoms were just scanned;
        # the rest are membership-checked on demand, memoised per call
        gate_cache: dict[str, bool] = {}
        probe_memo: dict = {}
        firing: list[int] = []
        rules = self.yara.rules
        for position in self._positions(hits, "yara", self._fallback_yara):
            rule = rules[position]
            started = time.perf_counter() if cost_sink is not None else 0.0
            blocked: set[str] = set()
            for identifier, atom in self._yara_gates[position].items():
                atom_id = self._atom_ids.get(atom)
                if atom_id is not None:
                    present = atom_id in hits
                else:
                    present = gate_cache.get(atom)
                    if present is None:
                        present = atom in folded
                        gate_cache[atom] = present
                if not present:
                    blocked.add(identifier)
            identifiers, ranks = self._yara_eval[position]
            evaluator = _LazyConditionEvaluator(
                rule.strings,
                text,
                blocked,
                identifiers=identifiers,
                probe_memo=probe_memo,
                probe_rank=ranks,
            )
            if rule.ast.condition is not None and evaluator.evaluate(rule.ast.condition):
                firing.append(position)
            if cost_sink is not None:
                cost_sink.record(
                    "yara", rule.name, time.perf_counter() - started, package
                )
        return firing

    def yara_rule_names(
        self,
        text: str,
        cost_sink=None,
        package: str = "",
        folded: Optional[str] = None,
        hits: Optional[set[int]] = None,
    ) -> list[str]:
        """Names of the YARA rules that fire on ``text`` (in rule order).

        The detection-service fast path: identical rule names to
        ``CompiledRuleSet.match(text)`` without materialising the per-string
        occurrence lists a full :class:`RuleMatch` carries.
        """
        if self.yara is None:
            return []
        rules = self.yara.rules
        return [
            rules[position].name
            for position in self._firing_positions(
                text, cost_sink, package, folded=folded, hits=hits
            )
        ]

    def match_yara(self, text: str) -> list[RuleMatch]:
        """Identical to ``CompiledRuleSet.match(text)``, prefilter included.

        Only rules whose conditions verifiably hold pay for full occurrence
        collection, so the expensive path runs exactly as often as there are
        detections.
        """
        if self.yara is None:
            return []
        results: list[RuleMatch] = []
        rules = self.yara.rules
        for position in self._firing_positions(text):
            found = rules[position].match(text)
            if found is not None:
                results.append(found)
        return results

    def match_semgrep(
        self,
        target: ScanTarget,
        cost_sink=None,
        folded: Optional[str] = None,
        hits: Optional[set[int]] = None,
    ) -> list[SemgrepFinding]:
        """Identical to ``CompiledSemgrepRuleSet.match_target(target)``."""
        findings: list[SemgrepFinding] = []
        for rule in self.candidate_semgrep_rules(target, folded=folded, hits=hits):
            started = time.perf_counter() if cost_sink is not None else 0.0
            findings.extend(rule.match_target(target))
            if cost_sink is not None:
                cost_sink.record(
                    "semgrep", rule.id, time.perf_counter() - started, target.name
                )
        return findings

    # -- introspection ------------------------------------------------------------
    @property
    def lane(self) -> str:
        """The atom pass's label, fixed per vocabulary: ``substring`` or
        ``automaton`` (the matcher's joined and walk lanes)."""
        if self._automaton.lane == SUBSTRING_LANE:
            return SUBSTRING_LANE
        return AUTOMATON_LANE

    def stats(self) -> IndexStats:
        yara_total = len(self.yara.rules) if self.yara is not None else 0
        semgrep_total = len(self.semgrep.rules) if self.semgrep is not None else 0
        automaton = self._automaton
        return IndexStats(
            yara_rules=yara_total,
            yara_indexed=yara_total - len(self._fallback_yara),
            semgrep_rules=semgrep_total,
            semgrep_indexed=semgrep_total - len(self._fallback_semgrep),
            atoms=len(automaton),
            automaton_states=automaton.state_count,
            lane=self.lane,
            packed_memory_bytes=automaton.memory_bytes,
            batch_guards=automaton.guard_count,
        )

    def fallback_reasons(self) -> dict[str, str]:
        """Why each non-indexable rule bypasses the prefilter."""
        return {
            atoms.rule_key: atoms.reason
            for atoms in self.rule_atoms
            if not atoms.indexable
        }
