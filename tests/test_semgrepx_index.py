"""Parity of indexed Semgrep matching with a whole-tree walk, thread-safe
parsing, and the parse memo.

``Pattern.match_tree`` visits only the ``TreeIndex`` group a pattern's root
can match.  The reference below walks every node of the tree for every
pattern, as the engine once did; both must give the same matches in the same
order, including where ``max_matches`` cuts the list.  Targets built through
a ``ParseMemo`` share one parse and one set of per-rule findings per
distinct text; their findings must equal a fresh target's, paths included.
"""

from __future__ import annotations

import ast
import gc
import pickle
import sys
import threading
import time
import weakref
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scanserve import RuleIndex
from repro.semgrepx import Pattern, ScanTarget, SemgrepRule, compile_rules
from repro.semgrepx.matcher import ParsedFile, ParseMemo
from repro.semgrepx.pattern import MatchResult, TreeIndex


# -- the whole-tree reference ----------------------------------------------------------

def _statement_blocks(tree):
    for node in ast.walk(tree):
        for field_name in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(node, field_name, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block


def _walk_matches(pattern, tree):
    if pattern.is_expression:
        expr = pattern._nodes[0].value
        for node in ast.walk(tree):
            if isinstance(node, ast.expr):
                bindings = {}
                if pattern._match_node(expr, node, bindings):
                    yield node, bindings
    else:
        for block in _statement_blocks(tree):
            for start in range(len(block)):
                bindings = {}
                if pattern._match_statements(pattern._nodes, block[start:], bindings):
                    yield block[start], bindings


def reference_match_tree(pattern, tree, max_matches=200):
    """``Pattern.match_tree`` as a full ``ast.walk`` per pattern."""
    results = []
    for node, bindings in _walk_matches(pattern, tree):
        results.append((node, bindings))
        if len(results) >= max_matches:
            break
    return results


def _key(results):
    return [(node.lineno, node.col_offset, bindings) for node, bindings in results]


def _indexed_key(results):
    return [(r.node.lineno, r.node.col_offset, r.bindings) for r in results]


def _reference_findings(ruleset, target):
    """Rule findings with every pattern matched by the whole-tree reference."""

    def walk_match_tree(pattern, tree, max_matches=200):
        return [MatchResult(bindings=b, node=n)
                for n, b in reference_match_tree(pattern, tree, max_matches)]

    with mock.patch.object(ParsedFile, "index", property(lambda self: self.tree)), \
            mock.patch.object(Pattern, "match_tree", walk_match_tree):
        return ruleset.match_target(target)


# -- generated sources and patterns --------------------------------------------------

_CALLEES = ["f", "g", "exec", "os.system", "requests.post", "requests.get",
            "base64.b64decode", "x.y.post", "f()", "obj[0]", "urlopen"]
_KEYWORDS = ["timeout=5", "json=data", "shell=True", "json=f(a)"]
_LEAVES = ["a", "b", "data", "v", "os.environ", "1", "True",
           '"http://x"', '"cmd"', '"..."', '"a"']


def _call(parts):
    callee, args, keywords = parts
    return f"{callee}({', '.join(args + keywords)})"


_expressions = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(_CALLEES), st.lists(inner, max_size=3),
                  st.lists(st.sampled_from(_KEYWORDS), max_size=2, unique=True)).map(_call),
        st.tuples(inner, st.sampled_from(["read", "post", "fileno"])).map(
            lambda t: f"({t[0]}).{t[1]}"),
    ),
    max_leaves=8,
)


def _indent(lines):
    return ["    " + line for line in lines]


def _compound(inner):
    block = st.lists(inner, min_size=1, max_size=3).map(lambda parts: sum(parts, []))
    return st.one_of(
        st.tuples(_expressions, block, block).map(
            lambda t: [f"if {t[0]}:", *_indent(t[1]), "else:", *_indent(t[2])]),
        block.map(lambda b: ["def fn(p):", *_indent(b)]),
        block.map(lambda b: ["class C(install):", *_indent(b)]),
        st.tuples(block, block).map(
            lambda t: ["try:", *_indent(t[0]), "except Exception:", *_indent(t[1]),
                       "finally:", *_indent(t[0])]),
        st.tuples(_expressions, block).map(
            lambda t: [f"with open({t[0]}) as fh:", *_indent(t[1])]),
    )


_statements = st.recursive(
    st.one_of(
        _expressions.map(lambda e: [e]),
        _expressions.map(lambda e: [f"v = {e}"]),
        st.sampled_from([["import base64"], ["import os, socket"], ["pass"]]),
    ),
    _compound,
    max_leaves=6,
)

_modules = st.lists(_statements, min_size=1, max_size=6).map(
    lambda parts: "\n".join(sum(parts, [])) + "\n")

PATTERNS = [
    # metavariable and ellipsis roots
    "$X", "...", "$F($X)", "$F($X, $X)", "$F(...)", "$O.post(...)",
    # string wildcards
    '"$URL"', '"..."', '$F("$URL")',
    # calls to a named callee
    "f(...)", "g($X, ...)", "exec($X)", "f()", "exec(base64.b64decode($X))",
    # calls to an attribute callee, with keywords
    "os.system($C)", "requests.post($URL, ...)", 'requests.post("$URL", ...)',
    "requests.get($U, timeout=$T, ...)", "requests.post($U, json=$D)",
    "x.y.post(...)", "subprocess.run($CMD, shell=True, ...)", "f(..., json=f($A))",
    # other callees and other root types
    "f()($X)", "obj[0](...)", "os.environ", "$X.read", "data", '"cmd"', "1",
    # statement patterns
    "class $C(install): ...", "import base64", "v = $X", "if $C:\n    ...",
    "with open($P) as $F:\n    ...", "v = $X\n$F(v)",
]


COMPILED = [Pattern(text) for text in PATTERNS]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(source=_modules)
def test_indexed_match_tree_equals_whole_tree_walk(source):
    tree = ast.parse(source)
    index = TreeIndex(tree)
    for pattern in COMPILED:
        for max_matches in (1, 2, 200):
            expected = _key(reference_match_tree(pattern, tree, max_matches))
            assert _indexed_key(pattern.match_tree(index, max_matches)) == expected, pattern.text
        # a bare tree is indexed on the fly
        assert _indexed_key(pattern.match_tree(tree, 200)) == expected, pattern.text


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(sources=st.lists(_modules, min_size=1, max_size=3),
       positive=st.sampled_from(PATTERNS), negative=st.sampled_from(PATTERNS),
       either=st.sampled_from(PATTERNS))
def test_indexed_rule_findings_equal_whole_tree_walk(sources, positive, negative, either):
    rule = SemgrepRule(
        id="r", message="m",
        patterns=[{"pattern": positive}, {"pattern-not": negative}],
    )
    either_rule = SemgrepRule(
        id="e", message="m",
        pattern_either=[{"pattern": either}, {"pattern": positive}],
        pattern_not=negative,
    )
    ruleset = compile_rules([rule, either_rule])
    files = [(f"m{i}.py", source) for i, source in enumerate(sources)]
    expected = _reference_findings(ruleset, ScanTarget.from_files("t", files))
    assert ruleset.match_target(ScanTarget.from_files("t", files)) == expected


def test_generated_rules_give_equal_findings_on_every_package(
    compiled_semgrep, small_dataset
):
    fired = 0
    for package in small_dataset.packages:
        indexed = compiled_semgrep.match_target(ScanTarget.from_package(package))
        expected = _reference_findings(compiled_semgrep, ScanTarget.from_package(package))
        assert indexed == expected, package.identifier
        fired += bool(indexed)
    assert fired  # the corpus exercises the generated rules


def test_parsed_file_index_is_built_once_and_not_pickled():
    target = ScanTarget.from_files("t", [("m.py", "os.system(cmd)\n")])
    parsed = target.parsed_files[0]
    assert target.parsed_files is target.parsed_files
    assert parsed.index is parsed.index
    assert parsed.entry._index is parsed.index  # the index lives on the entry
    restored = pickle.loads(pickle.dumps(parsed))
    assert restored.entry is not parsed.entry
    assert restored.entry._index is None
    assert [n.lineno for n in restored.index.calls_by_callee["system"]] == [1]


# -- the parse memo -------------------------------------------------------------------

_SHELL = "import os\nos.system(cmd)\nprint(eval)\n"
_EVAL = "x = 1\neval(payload)\nprint(os.system)\n"


def _shell_and_eval_rules():
    return compile_rules([
        SemgrepRule(id="shell", message="m", pattern="os.system($X)"),
        SemgrepRule(id="eval", message="m", pattern="eval($X)"),
        SemgrepRule(id="both", message="m", pattern_either=[
            {"pattern": "os.system($X)"}, {"pattern": "eval($X)"}]),
    ])


def test_memo_targets_share_entries_and_restamp_paths():
    ruleset = _shell_and_eval_rules()
    index = RuleIndex(semgrep=ruleset)
    memo = ParseMemo()
    first = ScanTarget.from_files("a", [("a/setup.py", _SHELL), ("a/x.py", _EVAL)], memo)
    assert index.match_semgrep(first)  # the entries now hold every rule's findings
    files = [("b/run.py", _EVAL), ("b/main.py", _SHELL), ("b/bad.py", "def broken(:")]
    second = ScanTarget.from_files("b", files, memo)
    assert second.files[0].entry is first.files[1].entry
    assert second.files[1].entry is first.files[0].entry
    assert len(memo) == 3
    expected = index.match_semgrep(ScanTarget.from_files("b", files))
    assert index.match_semgrep(second) == expected
    assert {finding.path for finding in expected} == {"b/run.py", "b/main.py"}
    # the first occurrence still reads its own paths
    assert index.match_semgrep(first) == index.match_semgrep(
        ScanTarget.from_files("a", [("a/setup.py", _SHELL), ("a/x.py", _EVAL)])
    )


def test_memo_keeps_the_findings_cap_of_a_target():
    texts = [f"os.system(a{i})\n" + "pass\n" * i + "eval(b)\n" for i in range(3)]
    files = [(f"pkg/m{i}.py", texts[i % 3]) for i in range(30)]
    rule = _shell_and_eval_rules().rule("both")
    memo = ParseMemo()
    ScanTarget.from_files("warm", [("w.py", text) for text in texts], memo)
    target = ScanTarget.from_files("t", files, memo)
    assert len(memo) == 3
    found = rule.match_target(target)
    assert len(found) == 50
    assert found == rule.match_target(ScanTarget.from_files("t", files))
    lines = {text: [1, text.count("\n")] for text in texts}
    assert [(f.path, f.line) for f in found] == [
        (path, line) for path, text in files for line in lines[text]
    ][:50]


def test_memo_pickles_empty_and_pickled_files_carry_no_entry():
    ruleset = _shell_and_eval_rules()
    memo = ParseMemo()
    target = ScanTarget.from_files("t", [("s.py", _SHELL), ("e.py", _EVAL)], memo)
    findings = ruleset.match_target(target)
    assert len(memo) == 2 and findings
    assert len(pickle.loads(pickle.dumps(memo))) == 0
    restored = pickle.loads(pickle.dumps(target))
    for before, after in zip(target.files, restored.files):
        assert (after.path, after.source) == (before.path, before.source)
        assert after.entry is not before.entry and after.entry._index is None
    assert ruleset.match_target(restored) == findings
    # a pickled rule carries none of the findings it holds
    assert len(ruleset.rules[0]._found) == 4
    assert len(pickle.loads(pickle.dumps(ruleset.rules[0]))._found) == 0


def test_findings_keep_neither_their_rule_nor_their_entry_alive():
    ruleset = _shell_and_eval_rules()
    memo = ParseMemo()
    target = ScanTarget.from_files("t", [("s.py", _SHELL), ("e.py", _EVAL)], memo)
    assert ruleset.match_target(target)
    assert [len(rule._found) for rule in ruleset] == [2, 2, 2]
    del target
    gc.collect()
    assert len(memo) == 0
    assert [len(rule._found) for rule in ruleset] == [0, 0, 0]
    # a target that outlives a rule set does not keep its rules alive
    target = ScanTarget.from_files("t", [("s.py", _SHELL)])
    assert ruleset.match_target(target)
    rules = [weakref.ref(rule) for rule in ruleset]
    del ruleset
    gc.collect()
    assert [rule() for rule in rules] == [None, None, None]


# -- concurrent parsing --------------------------------------------------------------

class _Cycle:
    """A reference cycle with a finalizer: collecting it runs Python code."""

    def __init__(self):
        self.me = self

    def __del__(self):
        self.me = None


def test_concurrent_parses_do_not_corrupt_the_ast_converter():
    # CPython 3.11 keeps the AST converter's recursion depth in process-wide
    # state; a collection mid-conversion runs __del__, which can switch to a
    # thread that starts its own conversion
    source = "".join(
        f"def fn{i}(a, b=({i}, [{i}])):\n    return g(a, {{'k': [b, (a, {i})]}})\n"
        for i in range(200)
    )
    errors: list[BaseException] = []
    parsed = [0, 0]  # files parsed, files that failed to parse
    count_lock = threading.Lock()
    deadline = time.monotonic() + 2.0

    def parse_loop():
        while time.monotonic() < deadline:
            try:
                target = ScanTarget.from_files("t", [("m.py", source)])
            except BaseException as exc:  # recorded and asserted on below
                errors.append(exc)
                continue
            with count_lock:
                parsed[0] += 1
                parsed[1] += sum(f.tree is None for f in target.files)

    def churn():
        while time.monotonic() < deadline:
            for _ in range(200):
                _Cycle()

    threads = [threading.Thread(target=churn, daemon=True)]
    threads += [threading.Thread(target=parse_loop, daemon=True) for _ in range(3)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert parsed[0] > 0 and parsed[1] == 0


def test_threads_sharing_a_memo_get_one_entry_per_text():
    # every target stays alive, so the first entry inserted for a text is
    # the one every later lookup of that text must return
    texts = [f"def fn{i}(a):\n    return g(a, {i})\n" * 20 for i in range(8)]
    memo = ParseMemo()
    targets: list[ScanTarget] = []
    deadline = time.monotonic() + 1.0

    def build(offset):
        while time.monotonic() < deadline:
            files = [(f"m{offset}_{i}.py", texts[(i + offset) % 8]) for i in range(8)]
            targets.append(ScanTarget.from_files("t", files, memo))

    threads = [threading.Thread(target=build, args=(n,), daemon=True) for n in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    entries: dict[str, set[int]] = {}
    for target in targets:
        for file in target.files:
            entries.setdefault(file.source, set()).add(id(file.entry))
    assert {len(ids) for ids in entries.values()} == {1} and len(memo) == 8
    for target in targets[:4]:
        for file in target.files:
            assert ast.dump(file.tree) == ast.dump(ast.parse(file.source))
