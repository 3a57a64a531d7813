"""Command-line interface (``rulellm``).

Twelve subcommands cover the common workflows:

``rulellm generate``
    Build a synthetic corpus (or load unpacked packages from a directory),
    run the RuleLLM pipeline and write the generated ``.yar`` / ``.yaml``
    rule files to an output directory.

``rulellm scan``
    Scan unpacked package directories with a previously generated rule set
    as one batch of a one-shard in-process :mod:`repro.scanserve` service,
    and print a verdict per package.

``rulellm evaluate``
    Regenerate the paper's headline comparison (Table VIII) at a chosen
    corpus scale.

``rulellm scan-batch``
    Scan many packages at once through the :mod:`repro.scanserve` service:
    atom-prefilter index, result cache and a sharded worker pool, with a
    throughput summary and optional JSON report.

``rulellm pipeline``
    The full closed loop through :mod:`repro.api`: feed packages into a
    :class:`~repro.api.GenerationSession` in incremental batches, generate
    rules stage by stage, auto-publish them into the scan registry, and
    immediately scan the corpus with the freshly published version.

``rulellm orchestrate``
    Sharded generation: publish a baseline version, scan the corpus (which
    fills the scan service's recency ring), then run a
    :class:`~repro.api.GenerationOrchestrator` fleet over the corpus and
    publish its output merged or stacked — the subscribed service re-scans
    the recent window live and reports the detection delta.

``rulellm registry``
    Inspect and manage the versioned rule sets of a :mod:`repro.store`
    store (see ``orchestrate --store``): ``list`` summarises every version
    recovered from the snapshot and journal tail, ``activate`` journals a
    new active version, ``retire`` journals a tombstone for a non-active
    one.  An old ``v<N>/``+``ACTIVE`` directory is imported first with
    ``rulellm store migrate``.

``rulellm serve``
    Run the :mod:`repro.gateway` — the long-running async multi-tenant
    front end: an HTTP job queue for scan batches and streaming generation
    feeds, per-tenant token-bucket quotas (429 + ``Retry-After`` on
    rejection), isolated per-tenant registry namespaces, and long-poll
    notification push for publishes and re-scan deltas.

``rulellm client``
    Talk to a running gateway: submit scan jobs and generation feeds
    (from package directories or a synthetic corpus), await or poll job
    status, cancel jobs, read the tenant's notification stream, and pull
    the operational metrics snapshot.

``rulellm arena``
    The continuous rule-quality arena (:mod:`repro.arena`): publish a
    baseline ruleset, replay seeded adversarial + benign traffic rounds
    against it, score and rank every rule on a leaderboard, auto-retire
    decayed rules, and refeed the misses through a generation session.
    With ``run --store`` every round is journaled; ``leaderboard`` /
    ``history`` rebuild the standings and list the rounds from the store,
    reading its journal without repairing anything.

``rulellm store``
    Operate a :mod:`repro.store` durable state store: ``fsck`` validates
    the journal and blobs (truncating torn tails, reporting a
    :class:`~repro.store.RecoveryReport`), ``info`` prints epoch/blob
    stats, ``compact`` folds the journal prefix into a snapshot and drops
    replayed segments, ``migrate`` converts a ``v<N>/``+``ACTIVE``
    registry directory into a store.

``rulellm obs``
    Observability (:mod:`repro.obs`): ``spans`` renders the span trees
    recorded by ``--trace`` on orchestrate/serve, ``top`` ranks the
    slowest spans, ``metrics`` scrapes a running gateway's unified
    metrics registry as a table, Prometheus text, or JSON snapshot.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from pathlib import Path

from repro.core import RuleLLM, RuleLLMConfig
from repro.core.rules import GeneratedRuleSet
from repro.corpus import DatasetConfig, build_dataset
from repro.evaluation.experiments import ExperimentSuite
from repro.extraction.unpacking import load_package_from_directory


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser("generate", help="generate YARA & Semgrep rules")
    parser.add_argument("--output", default="generated_rules", help="directory for the rule files")
    parser.add_argument("--model", default="gpt-4o", help="model profile (gpt-4o, claude-3.5-sonnet, ...)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="synthetic corpus scale relative to the paper (default 0.05)")
    parser.add_argument("--seed", type=int, default=1633)
    parser.add_argument("--packages", default=None,
                        help="directory of unpacked malicious packages to use instead of the synthetic corpus")


def _add_scan(subparsers) -> None:
    parser = subparsers.add_parser("scan", help="scan unpacked packages with generated rules")
    parser.add_argument("--rules", required=True, help="directory written by 'rulellm generate'")
    parser.add_argument("targets", nargs="+", help="unpacked package directories to scan")


def _add_scan_batch(subparsers) -> None:
    parser = subparsers.add_parser(
        "scan-batch", help="scan many packages through the scanserve service"
    )
    parser.add_argument("--rules", required=True, help="directory written by 'rulellm generate'")
    parser.add_argument("targets", nargs="+",
                        help="unpacked package directories, or directories of package directories")
    parser.add_argument("--shards", type=int, default=4, help="worker shards (default 4)")
    parser.add_argument("--mode", choices=["auto", "process", "inprocess"], default="auto",
                        help="worker pool mode (default auto: multiprocessing with in-process fallback)")
    parser.add_argument("--threshold", type=int, default=1,
                        help="rules that must fire to call a package malicious (default 1)")
    parser.add_argument("--no-index", action="store_true",
                        help="disable the atom-prefilter index (naive per-rule scanning)")
    parser.add_argument("--json", default=None, help="write the full batch report to this file")


def _add_pipeline(subparsers) -> None:
    parser = subparsers.add_parser(
        "pipeline",
        help="generate -> auto-publish -> scan end-to-end through repro.api",
    )
    parser.add_argument("--model", default="gpt-4o", help="model profile")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="synthetic corpus scale relative to the paper (default 0.05)")
    parser.add_argument("--seed", type=int, default=1633)
    parser.add_argument("--packages", default=None,
                        help="directory of unpacked malicious packages to use instead of the synthetic corpus")
    parser.add_argument("--batches", type=int, default=2,
                        help="feed the corpus to the session in this many incremental batches (default 2)")
    parser.add_argument("--output", default=None,
                        help="also write the generated rule files to this directory")
    parser.add_argument("--shards", type=int, default=4, help="scan worker shards (default 4)")
    parser.add_argument("--mode", choices=["auto", "process", "inprocess"], default="auto",
                        help="scan worker pool mode (default auto)")
    parser.add_argument("--threshold", type=int, default=1,
                        help="rules that must fire to call a package malicious (default 1)")
    parser.add_argument("--json", default=None, help="write the full batch report to this file")


def _add_orchestrate(subparsers) -> None:
    parser = subparsers.add_parser(
        "orchestrate",
        help="sharded generation fleet -> merged/stacked publish -> live re-scan",
    )
    parser.add_argument("--model", default="gpt-4o", help="model profile")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="synthetic corpus scale relative to the paper (default 0.05)")
    parser.add_argument("--seed", type=int, default=1633)
    parser.add_argument("--packages", default=None,
                        help="directory of unpacked malicious packages to use instead of the synthetic corpus")
    parser.add_argument("--shards", type=int, default=3,
                        help="generation shards in the fleet (default 3)")
    parser.add_argument("--plan", choices=["cluster", "behavior", "round-robin"],
                        default="cluster",
                        help="corpus partitioning strategy (default cluster: merged "
                             "output is identical to a single-session run)")
    parser.add_argument("--publish", choices=["merged", "stacked"], default="merged",
                        help="merged: one union version; stacked: cumulative layers")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="shard sessions run on this many threads (<=1: sequential)")
    parser.add_argument("--baseline", type=float, default=0.4,
                        help="fraction of the corpus used for the baseline version "
                             "whose scan fills the re-scan window (default 0.4, 0 disables)")
    parser.add_argument("--threshold", type=int, default=1,
                        help="rules that must fire to call a package malicious (default 1)")
    parser.add_argument("--output", default=None,
                        help="also write the fleet's merged rule files to this directory")
    parser.add_argument("--store", default=None,
                        help="durable state store directory: the registry recovers "
                             "from (and journals into) it, and every shard "
                             "completion becomes a resumable checkpoint")
    parser.add_argument("--resume", action="store_true",
                        help="with --store: reconcile against prior checkpoints of "
                             "the same run and re-run only the missing shards")
    parser.add_argument("--no-durable-store", action="store_true",
                        help="skip per-record fsyncs in the store (CI/tests)")
    # deterministic crash injection for the CI kill-and-resume smoke test:
    # SIGKILL this process right after the Nth shard checkpoint lands
    parser.add_argument("--sigkill-after-shards", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--json", default=None,
                        help="write the fleet/re-scan report to this file")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="enable end-to-end tracing and append finished "
                             "spans to this JSONL file (see 'rulellm obs')")


def _add_registry(subparsers) -> None:
    parser = subparsers.add_parser(
        "registry",
        help="manage the versioned rule sets of a durable store",
    )
    actions = parser.add_subparsers(dest="registry_command", required=True)
    list_parser = actions.add_parser("list", help="summarise every version")
    list_parser.add_argument("dir", help="store directory (see 'orchestrate --store')")
    activate_parser = actions.add_parser("activate", help="mark a version as active")
    activate_parser.add_argument("dir")
    activate_parser.add_argument("version", type=int)
    retire_parser = actions.add_parser("retire", help="retire a non-active version")
    retire_parser.add_argument("dir")
    retire_parser.add_argument("version", type=int)
    retire_parser.add_argument("--reason", default="",
                               help="why the version is retired (stamped into "
                                    "its tombstone)")
    retire_parser.add_argument("--by", default="", dest="retired_by",
                               help="who retired it (operator name or automation id)")


def _add_store(subparsers) -> None:
    parser = subparsers.add_parser(
        "store",
        help="operate a durable state store (journal + blobs + snapshots)",
    )
    actions = parser.add_subparsers(dest="store_command", required=True)

    fsck = actions.add_parser(
        "fsck", help="validate the store, truncating torn journal tails"
    )
    fsck.add_argument("dir", help="store directory (see 'orchestrate --store')")
    fsck.add_argument("--deep", action="store_true",
                      help="re-hash every blob against its content address")
    fsck.add_argument("--json", default=None,
                      help="write the RecoveryReport to this file")

    info = actions.add_parser("info", help="print journal/blob/snapshot stats")
    info.add_argument("dir")
    info.add_argument("--json", default=None)

    compact = actions.add_parser(
        "compact", help="fold the journal prefix into a snapshot and drop it"
    )
    compact.add_argument("dir")

    migrate = actions.add_parser(
        "migrate",
        help="convert a v<N>/+ACTIVE registry directory into a store",
    )
    migrate.add_argument("src", help="registry directory (v1/, v2/, ... + ACTIVE)")
    migrate.add_argument("dest", help="store directory to create")


def _cmd_store(args) -> int:
    import json as json_module

    from repro.store import JournalCorruption

    if args.store_command == "migrate":
        return _store_migrate(Path(args.src), Path(args.dest))

    root = Path(args.dir)
    opened = _open_existing_store(
        root, "'--store DIR' on orchestrate, serve or arena run creates one",
        deep=getattr(args, "deep", False),
    )
    if opened is None:
        return 1
    store, report = opened
    with store:
        if args.store_command == "fsck":
            print(report.describe())
            for note in report.notes:
                print(f"  note: {note}")
            if args.json:
                Path(args.json).parent.mkdir(parents=True, exist_ok=True)
                Path(args.json).write_text(
                    json_module.dumps(report.to_dict(), indent=2, sort_keys=True)
                    + "\n",
                    encoding="utf-8",
                )
                print(f"wrote {args.json}")
            return 0 if report.ok else 1

        if args.store_command == "info":
            try:
                details = store.info()
            except JournalCorruption as exc:
                return _store_unrecoverable(root, exc)
            print(f"store {details['root']}:")
            print(f"  journal: {details['segments']} segment(s), "
                  f"{details['records']} record(s), "
                  f"{details['journal_bytes']} bytes, "
                  f"last epoch {details['last_epoch']}")
            snapshot = details["snapshot_epoch"]
            print(f"  snapshot: "
                  + (f"epoch {snapshot} ({details['manifests']} manifest(s))"
                     if snapshot else "none"))
            print(f"  blobs: {details['blobs']} ({details['bytes']} bytes)")
            for record_type, count in details["records_by_type"].items():
                print(f"    {record_type}: {count}")
            if args.json:
                Path(args.json).parent.mkdir(parents=True, exist_ok=True)
                Path(args.json).write_text(
                    json_module.dumps(details, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
                print(f"wrote {args.json}")
            return 0

        if args.store_command == "compact":
            try:
                outcome = store.compact()
            except JournalCorruption as exc:
                return _store_unrecoverable(root, exc)
            print(outcome.describe())
            return 0
    return 2


def _store_unrecoverable(root: Path, exc: Exception) -> int:
    print(f"store {root} unrecoverable: {exc}", file=sys.stderr)
    return 1


def _has_store(root: Path, hint: str) -> bool:
    """Whether ``root`` holds a store's ``journal/``; if not, one stderr
    line says so and ``hint`` says how to make one."""
    from repro.store.recovery import JOURNAL_DIR

    if (root / JOURNAL_DIR).is_dir():
        return True
    print(f"no store at {root}; {hint}", file=sys.stderr)
    return False


def _open_existing_store(root: Path, hint: str, deep: bool = False):
    """Open the store at ``root`` for an offline command, or say why not.

    Returns ``(store, report)``, or ``None`` after one stderr line: there
    is no store under ``root`` (:func:`_has_store`), or the journal is
    damaged past opening.
    """
    from repro.store import JournalCorruption, open_store

    if not _has_store(root, hint):
        return None
    try:
        return open_store(root, deep=deep, create=False)
    except JournalCorruption as exc:
        _store_unrecoverable(root, exc)
        return None


# -- old registry directories (read only by 'store migrate') ------------------------
_ACTIVE_MARKER = "ACTIVE"
_RETIRED_FILE = "RETIRED.json"


def _registry_dir_tombstones(root: Path) -> list[dict]:
    """Retirement records of an on-disk registry (empty when none)."""
    import json as json_module

    try:
        records = json_module.loads(
            (root / _RETIRED_FILE).read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return []
    return records if isinstance(records, list) else []


def _registry_dir_versions(root: Path) -> dict[int, Path]:
    versions: dict[int, Path] = {}
    if root.is_dir():
        for path in root.iterdir():
            if path.is_dir() and path.name.startswith("v") and path.name[1:].isdigit():
                versions[int(path.name[1:])] = path
    return versions


def _registry_dir_active(root: Path) -> int | None:
    marker = root / _ACTIVE_MARKER
    try:
        return int(marker.read_text(encoding="utf-8").strip())
    except (OSError, ValueError):
        return None


def _store_migrate(src: Path, dest: Path) -> int:
    """Convert an old ``v<N>/``+``ACTIVE`` registry directory into a store.

    Version numbers are preserved: a gap in the directory (a retired
    version, or one that no longer parses) is consumed by a placeholder
    publish that is immediately retired through the registry, so the
    journal carries the original tombstone under its original number and
    live versions keep theirs.  ``dest`` must not hold a store yet.
    """
    from repro.scanserve import RulesetRegistry
    from repro.store import open_store
    from repro.store.recovery import JOURNAL_DIR

    if (dest / JOURNAL_DIR).is_dir():
        print(f"{dest} already holds a store; migrate into a new directory",
              file=sys.stderr)
        return 1
    versions = _registry_dir_versions(src)
    if not versions:
        print(f"no versions under {src}", file=sys.stderr)
        return 1
    active = _registry_dir_active(src)
    tombstones = {
        int(record.get("version", 0)): record
        for record in _registry_dir_tombstones(src)
    }

    rulesets: dict[int, GeneratedRuleSet] = {}
    for number, path in versions.items():
        loaded = GeneratedRuleSet.load(path)
        if loaded.rules:
            rulesets[number] = loaded
    if not rulesets:
        print(f"no readable versions under {src}", file=sys.stderr)
        return 1
    highest = max(list(rulesets) + [n for n in tombstones if n > 0])
    filler = rulesets[min(rulesets)]
    if active not in rulesets:
        active = max(rulesets)
        print(f"ACTIVE marker missing or unreadable: activating v{active}")

    store, _report = open_store(dest)
    with store:
        registry = RulesetRegistry(store=store)
        migrated = 0
        for number in range(1, highest + 1):
            if number in rulesets:
                published = registry.publish_generated(
                    rulesets[number], label=versions[number].name,
                    activate=(number == active),
                )
                migrated += 1
                marker = " (active)" if number == active else ""
                print(f"v{number}: {published.rule_count} rules{marker}")
                continue
            tombstone = tombstones.get(number, {})
            registry.publish_generated(
                filler, label=f"migration-gap-v{number}", activate=False
            )
            registry.retire(
                number,
                reason=str(tombstone.get("reason", ""))
                or "unreadable or missing at migration",
                retired_by=str(tombstone.get("retired_by", "")),
            )
            print(f"v{number}: tombstone carried"
                  + (f" ({tombstone['reason']})" if tombstone.get("reason") else ""))
        registry.snapshot()
    print(f"migrated {migrated} version(s) into {dest} "
          f"(recover with RulesetRegistry.from_store or 'orchestrate --store')")
    return 0


def _add_arena(subparsers) -> None:
    parser = subparsers.add_parser(
        "arena",
        help="continuous rule-quality arena: replay, score, rank, retire, refeed",
    )
    actions = parser.add_subparsers(dest="arena_command", required=True)

    run = actions.add_parser(
        "run", help="publish a baseline and run scored traffic rounds against it"
    )
    run.add_argument("--scale", type=float, default=0.02,
                     help="synthetic corpus scale (default 0.02)")
    run.add_argument("--seed", type=int, default=1633)
    run.add_argument("--model", default="gpt-4o",
                     help="model profile for baseline and refeed generation")
    run.add_argument("--rounds", type=int, default=3,
                     help="traffic rounds to run (default 3)")
    run.add_argument("--policy", default="weighted",
                     help="scoring policy: strict | lenient | weighted (default)")
    run.add_argument("--packages-per-round", type=int, default=16)
    run.add_argument("--decay-threshold", type=float, default=0.4,
                     help="score below this counts as a decayed round (default 0.4)")
    run.add_argument("--retire-after", type=int, default=2,
                     help="consecutive decayed rounds before auto-retire (default 2)")
    run.add_argument("--obfuscation-step", type=float, default=0.5,
                     help="per-round increase of the variant obfuscation "
                          "probability (default 0.5: round 0 replays plain, "
                          "later rounds mostly wrapped)")
    run.add_argument("--no-refeed", action="store_true",
                     help="retire decayed rules without regenerating from misses")
    run.add_argument("--store", default=None,
                     help="durable state store directory: the registry recovers "
                          "from it and every round is journaled, so a restarted "
                          "arena continues its round numbering and leaderboard "
                          "(what 'rulellm arena leaderboard/history' read)")
    run.add_argument("--json", default=None,
                     help="write the full arena report to this file")

    board = actions.add_parser(
        "leaderboard",
        help="rebuild the leaderboard from a store's journaled rounds "
             "(read only: safe beside a live 'arena run --store')",
    )
    board.add_argument("dir", help="store written by 'arena run --store'")
    board.add_argument("--limit", type=int, default=10)
    board.add_argument("--json", default=None)

    history = actions.add_parser(
        "history",
        help="list the rounds journaled in a store, one per index "
             "(read only: safe beside a live 'arena run --store')",
    )
    history.add_argument("dir", help="store written by 'arena run --store'")
    history.add_argument("--limit", type=int, default=10)
    history.add_argument("--json", default=None)


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the async multi-tenant gateway (job queue + quotas + event push)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8711,
                        help="listen port (0 picks a free one; default 8711)")
    parser.add_argument("--model", default="gpt-4o",
                        help="model profile used by generation-feed jobs")
    parser.add_argument("--seed", type=int, default=1633)
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent jobs (default 2)")
    parser.add_argument("--history", type=int, default=64,
                        help="finished jobs kept addressable (default 64)")
    parser.add_argument("--tenant", action="append", default=[],
                        metavar="NAME[:CAPACITY[:REFILL]]",
                        help="pre-register a tenant, optionally with a token-bucket "
                             "burst capacity and refill rate (repeatable)")
    parser.add_argument("--capacity", type=float, default=8.0,
                        help="default tenant burst capacity (default 8)")
    parser.add_argument("--refill", type=float, default=4.0,
                        help="default tenant refill tokens/second (default 4)")
    parser.add_argument("--no-auto-tenant", action="store_true",
                        help="reject unknown tenants instead of auto-registering "
                             "them with the default quota")
    parser.add_argument("--store", default=None,
                        help="durable state store directory: jobs are journaled "
                             "(a restart marks prior in-flight jobs interrupted) "
                             "and each tenant's registry recovers from its "
                             "tenants/<name> substore")
    parser.add_argument("--ready-file", default=None,
                        help="write 'host port' here once listening (for scripts)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="enable request tracing and append finished spans "
                             "to this JSONL file (also served at /trace/<id>)")


def _add_client(subparsers) -> None:
    parser = subparsers.add_parser(
        "client", help="drive a running gateway (see 'rulellm serve')"
    )
    parser.add_argument("--url", default="http://127.0.0.1:8711",
                        help="gateway base URL (default http://127.0.0.1:8711)")
    actions = parser.add_subparsers(dest="client_command", required=True)

    actions.add_parser("health", help="gateway liveness and job counts")

    metrics = actions.add_parser(
        "metrics", help="operational snapshot: per-tenant queues, quotas, rejections"
    )
    metrics.add_argument("--format", choices=["table", "json", "prom"],
                         default="table",
                         help="table: human summary (default); json: the full "
                              "JSON document; prom: Prometheus text exposition")
    metrics.add_argument("--json", default=None,
                         help="write the metrics document to this file")

    def corpus_args(sub):
        sub.add_argument("tenant", help="tenant name")
        sub.add_argument("packages", nargs="*",
                         help="unpacked package directories (or directories of them); "
                              "omit to use a synthetic corpus via --scale")
        sub.add_argument("--scale", type=float, default=0.02,
                         help="synthetic corpus scale when no directories are given")
        sub.add_argument("--seed", type=int, default=1633)
        sub.add_argument("--label", default="")
        sub.add_argument("--wait", type=float, default=0.0,
                         help="seconds to wait for the job to finish (0: submit only)")
        sub.add_argument("--json", default=None,
                         help="write the final job document to this file")

    corpus_args(actions.add_parser("scan", help="submit a scan batch job"))
    generate = actions.add_parser(
        "generate", help="submit a streaming generation feed"
    )
    corpus_args(generate)
    generate.add_argument("--batches", type=int, default=2,
                          help="stream the corpus in this many feed batches (default 2)")

    status = actions.add_parser("status", help="one job's status")
    status.add_argument("tenant")
    status.add_argument("job")
    status.add_argument("--wait", type=float, default=0.0)
    status.add_argument("--json", default=None)

    cancel = actions.add_parser("cancel", help="cancel a job")
    cancel.add_argument("tenant")
    cancel.add_argument("job")

    events = actions.add_parser("events", help="read the notification stream")
    events.add_argument("tenant")
    events.add_argument("--after", type=int, default=0,
                        help="only notifications after this sequence number")
    events.add_argument("--wait", type=float, default=0.0,
                        help="long-poll up to this many seconds for news")
    events.add_argument("--json", default=None)


def _add_evaluate(subparsers) -> None:
    parser = subparsers.add_parser("evaluate", help="regenerate the paper's Table VIII comparison")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--model", default="gpt-4o")
    parser.add_argument("--seed", type=int, default=1633)


def _cmd_generate(args) -> int:
    config = RuleLLMConfig.full(model=args.model, seed=args.seed)
    pipeline = RuleLLM(config)
    if args.packages:
        root = Path(args.packages)
        packages = [load_package_from_directory(path, label="malware")
                    for path in sorted(root.iterdir()) if path.is_dir()]
        if not packages:
            print(f"no package directories found under {root}", file=sys.stderr)
            return 1
    else:
        dataset_config = DatasetConfig(scale=args.scale, seed=args.seed)
        packages = build_dataset(dataset_config).malware
    print(f"generating rules from {len(packages)} malicious packages with {args.model} ...")
    ruleset = pipeline.generate_rules(packages)
    output = ruleset.save(args.output)
    counts = ruleset.counts()
    print(f"wrote {counts['yara']} YARA and {counts['semgrep']} Semgrep rules to {output}")
    return 0


def _cmd_scan(args) -> int:
    from repro.scanserve import ScanService, ScanServiceConfig

    ruleset = GeneratedRuleSet.load(args.rules)
    if not ruleset.rules:
        print(f"no rules found under {args.rules}", file=sys.stderr)
        return 1
    packages = [load_package_from_directory(target) for target in args.targets]
    with ScanService(config=ScanServiceConfig(mode="inprocess")) as service:
        service.publish_generated(ruleset, label=str(args.rules))
        batch = service.scan_batch(packages)
    return 2 if _print_verdicts(args.targets, batch) else 0


_PACKAGE_MARKER_NAMES = {"PKG-INFO", "METADATA", "setup.py", "setup.cfg", "pyproject.toml"}


def _looks_like_package_dir(root: Path) -> bool:
    """A directory is one unpacked package when it carries source files or
    registry metadata at its top level; a corpus directory holds package
    subdirectories and at most stray non-source files (READMEs, indexes)."""
    for entry in root.iterdir():
        if entry.is_file() and (
            entry.suffix in (".py", ".js") or entry.name in _PACKAGE_MARKER_NAMES
        ):
            return True
    return not any(entry.is_dir() for entry in root.iterdir())


def _discover_package_dirs(targets: list[str]) -> list[Path]:
    """Resolve targets: a package directory, or a directory of package dirs."""
    discovered: list[Path] = []
    for target in targets:
        root = Path(target)
        if not root.is_dir():
            raise FileNotFoundError(f"not a directory: {target}")
        if _looks_like_package_dir(root):
            discovered.append(root)
        else:
            skipped = sorted(p.name for p in root.iterdir() if p.is_file())
            if skipped:
                print(
                    f"note: treating {root} as a directory of packages; "
                    f"ignoring stray files: {', '.join(skipped[:5])}",
                    file=sys.stderr,
                )
            discovered.extend(sorted(p for p in root.iterdir() if p.is_dir()))
    return discovered


def _print_verdicts(paths, batch) -> int:
    """Per-target verdict lines; returns how many were flagged malicious."""
    threshold = batch.result.match_threshold
    malicious = 0
    for path, detection in zip(paths, batch.detections):
        flagged = detection.predicted(threshold)
        malicious += flagged
        matched = ", ".join(detection.matched_rules[:5]) or "-"
        print(f"{path}: {'MALICIOUS' if flagged else 'clean'} "
              f"({detection.match_count} rules matched: {matched})")
    return malicious


def _write_report(batch, json_path) -> None:
    if json_path:
        Path(json_path).write_text(batch.to_json() + "\n", encoding="utf-8")
        print(f"wrote report to {json_path}")


def _cmd_scan_batch(args) -> int:
    from repro.scanserve import ScanService, ScanServiceConfig

    ruleset = GeneratedRuleSet.load(args.rules)
    if not ruleset.rules:
        print(f"no rules found under {args.rules}", file=sys.stderr)
        return 1
    try:
        package_dirs = _discover_package_dirs(args.targets)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not package_dirs:
        print("no package directories found", file=sys.stderr)
        return 1
    packages = [load_package_from_directory(path) for path in package_dirs]

    with ScanService(
        config=ScanServiceConfig(
            shards=max(1, args.shards),
            mode=args.mode,
            match_threshold=max(1, args.threshold),
            use_index=not args.no_index,
        )
    ) as service:
        version = service.publish_generated(ruleset, label=str(args.rules))
        print(f"published ruleset {version.describe()}")
        batch = service.scan_batch(packages)

    malicious = _print_verdicts(package_dirs, batch)
    print(
        f"\nscanned {batch.packages} packages in {batch.elapsed_seconds:.3f}s "
        f"({batch.packages_per_second:.1f} pkg/s, mode={batch.mode}, "
        f"workers={batch.workers}, cache hits={batch.cache_hits})"
    )
    for shard in batch.shard_stats:
        print(
            f"  shard {shard.shard_id}: {shard.packages} packages in "
            f"{shard.seconds:.3f}s ({shard.packages_per_second:.1f} pkg/s)"
        )
    _print_slow_rules(service)
    _write_report(batch, args.json)
    return 2 if malicious else 0


def _print_slow_rules(service, limit: int = 3) -> None:
    slow = service.top_slow_rules(limit)
    if slow:
        print("slowest rules:")
        for cost in slow:
            print(f"  {cost.describe()}")


def _cmd_pipeline(args) -> int:
    from repro.api import GenerationSession, ScanService, ScanServiceConfig

    loaded = _load_malware_corpus(args)
    if loaded is None:
        return 1
    malware, scan_targets, package_dirs = loaded

    with ScanService(
        config=ScanServiceConfig(
            shards=max(1, args.shards),
            mode=args.mode,
            match_threshold=max(1, args.threshold),
        )
    ) as service:
        session = GenerationSession(
            config=RuleLLMConfig.full(model=args.model, seed=args.seed),
            registry=service.registry,
        )

        batches = max(1, min(args.batches, len(malware)))
        chunk = -(-len(malware) // batches)  # ceil division
        total_batches = -(-len(malware) // chunk)  # may be < --batches
        for start in range(0, len(malware), chunk):
            batch = malware[start:start + chunk]
            index = session.add_batch(batch)
            print(f"fed batch {index}/{total_batches} ({len(batch)} packages, "
                  f"{session.pending_count} pending)")

        print(f"generating rules with {args.model} ...")
        result = session.generate(label=f"{args.model} pipeline")
        print(result.describe())
        if result.version is None:
            print("no rules survived alignment; nothing published", file=sys.stderr)
            return 1
        print(f"published {result.version.describe()}")
        if args.output:
            output = result.rule_set.save(args.output)
            print(f"wrote rule files under {output}")

        # the freshly published version is already live: scan with zero glue
        batch = service.scan_batch(scan_targets)
    malicious = sum(
        1 for d in batch.detections if d.predicted(batch.result.match_threshold)
    )
    print(
        f"\nscanned {batch.packages} packages with ruleset v{batch.ruleset_version} "
        f"in {batch.elapsed_seconds:.3f}s ({batch.packages_per_second:.1f} pkg/s, "
        f"mode={batch.mode}, workers={batch.workers}): {malicious} flagged malicious"
    )
    if not args.packages:
        confusion = batch.result.confusion()
        print(f"detection: precision {confusion.precision:.2%}, "
              f"recall {confusion.recall:.2%}, f1 {confusion.f1:.2%}")
    else:
        _print_verdicts(package_dirs, batch)
    _print_slow_rules(service)
    _write_report(batch, args.json)
    return 0


def _load_malware_corpus(args):
    """Shared corpus loading for pipeline-style commands.

    Returns ``(malware, scan_targets, package_dirs)`` or an exit code on
    failure.
    """
    if args.packages:
        try:
            package_dirs = _discover_package_dirs([args.packages])
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            return None
        malware = [load_package_from_directory(path, label="malware")
                   for path in package_dirs]
        if not malware:
            print(f"no package directories found under {args.packages}",
                  file=sys.stderr)
            return None
        return malware, malware, package_dirs
    dataset_config = DatasetConfig(scale=args.scale, seed=args.seed)
    dataset = build_dataset(dataset_config)
    return dataset.malware, dataset.packages, []


def _add_obs(subparsers) -> None:
    parser = subparsers.add_parser(
        "obs",
        help="inspect traces and metrics (pair with --trace on "
             "orchestrate/serve)",
    )
    actions = parser.add_subparsers(dest="obs_command", required=True)

    spans = actions.add_parser(
        "spans", help="render the span trees recorded in a trace JSONL file"
    )
    spans.add_argument("trace_file",
                       help="JSONL span sink written via --trace")
    spans.add_argument("--trace-id", default=None,
                       help="render only this trace")

    top = actions.add_parser(
        "top", help="slowest spans across a trace JSONL file"
    )
    top.add_argument("trace_file")
    top.add_argument("--limit", type=int, default=10,
                     help="how many spans to show (default 10)")

    metrics = actions.add_parser(
        "metrics", help="the unified metrics registry of a running gateway"
    )
    metrics.add_argument("--url", default="http://127.0.0.1:8711",
                         help="gateway base URL (default http://127.0.0.1:8711)")
    metrics.add_argument("--format", choices=["table", "prom", "json"],
                         default="table",
                         help="table: aligned text (default); prom: Prometheus "
                              "exposition; json: registry snapshot document")


def _read_span_records(path: Path):
    """Span records from a ``--trace`` JSONL sink (None on read failure)."""
    import json as json_module

    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None
    records = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json_module.loads(line)
        except ValueError:
            continue  # torn tail write; the sink is append-only
        if isinstance(record, dict):
            records.append(record)
    return records


def _cmd_obs(args) -> int:
    import json as json_module

    if args.obs_command in ("spans", "top"):
        records = _read_span_records(Path(args.trace_file))
        if records is None:
            return 1
        if not records:
            print(f"no span records in {args.trace_file}", file=sys.stderr)
            return 1
        if args.obs_command == "spans":
            from repro.obs import format_span_tree

            rendered = format_span_tree(records, trace_id=args.trace_id) + "\n"
        else:
            from repro.obs import slowest_spans

            rows = [f"{'ms':>10}  {'span':<24} trace"]
            for record in slowest_spans(records, limit=max(1, args.limit)):
                millis = float(record.get("seconds", 0.0)) * 1000.0
                rows.append(
                    f"{millis:>10.2f}  {record.get('name', '?'):<24} "
                    f"{record.get('trace_id', '')[:16]}"
                )
            rendered = "\n".join(rows) + "\n"
        try:
            sys.stdout.write(rendered)
        except BrokenPipeError:
            pass  # output piped into head; the render already succeeded
        return 0

    # obs metrics: scrape a running gateway
    from repro.gateway import GatewayClient, GatewayError

    client = GatewayClient(args.url)
    try:
        if args.format == "prom":
            rendered = client.metrics_text()
        elif args.format == "json":
            rendered = json_module.dumps(
                client.metrics_snapshot(), indent=2, sort_keys=True
            ) + "\n"
        else:
            from repro.obs import format_metrics_table

            rendered = format_metrics_table(client.metrics_snapshot()) + "\n"
    except GatewayError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach gateway at {args.url}: {exc}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(rendered)
    except BrokenPipeError:
        pass  # output piped into head; the scrape already succeeded
    return 0


def _cmd_orchestrate(args) -> int:
    from repro.api import ScanService, ScanServiceConfig

    if args.trace:
        from repro.obs import configure_tracing

        configure_tracing(sink=args.trace)
        print(f"tracing enabled -> {args.trace} (inspect with 'rulellm obs')")

    loaded = _load_malware_corpus(args)
    if loaded is None:
        return 1
    malware, scan_targets, _package_dirs = loaded

    # the service (subscribed to the registry) and the store close on every
    # exit path, the service first
    with ExitStack() as resources:
        store = None
        registry = None
        recovery = None
        if args.store:
            from repro.scanserve import RulesetRegistry
            from repro.store import open_store

            store, recovery = open_store(
                args.store, durable=not args.no_durable_store
            )
            resources.enter_context(store)
            print(recovery.describe())
            registry = RulesetRegistry.from_store(store)
            if registry.versions():
                print(f"recovered registry: {len(registry.versions())} version(s), "
                      f"active v{registry.current_version()}")
        service = resources.enter_context(ScanService(
            registry=registry,
            config=ScanServiceConfig(
                mode="inprocess",
                match_threshold=max(1, args.threshold),
                live_rescan=True,
            )
        ))
        return _orchestrate(args, malware, scan_targets, service, store, recovery)


def _orchestrate(args, malware, scan_targets, service, store, recovery) -> int:
    """`rulellm orchestrate` on an open service (and store, if any)."""
    import json as json_module

    from repro.api import (
        BehaviorShardPlan,
        ClusterShardPlan,
        GenerationOrchestrator,
        GenerationSession,
        RoundRobinShardPlan,
    )

    shards = max(1, args.shards)
    plans = {
        "cluster": lambda: ClusterShardPlan(shards),
        "behavior": lambda: BehaviorShardPlan(max_shards=shards),
        "round-robin": lambda: RoundRobinShardPlan(shards),
    }
    config = RuleLLMConfig.full(model=args.model, seed=args.seed)

    baseline_count = min(len(malware), max(0, round(len(malware) * args.baseline)))
    if baseline_count:
        baseline = GenerationSession(config, registry=service.registry)
        baseline.add_batch(malware[:baseline_count])
        result = baseline.generate(label="baseline")
        if result.version is not None:
            print(f"baseline: {result.describe()}")
            scanned = service.scan_batch(scan_targets)
            print(
                f"pre-scanned {scanned.packages} packages with "
                f"v{scanned.ruleset_version} (re-scan window primed)"
            )

    orchestrator = GenerationOrchestrator(
        config=config,
        plan=plans[args.plan](),
        registry=service.registry,
        max_workers=args.max_workers,
        store=store,
    )
    if args.sigkill_after_shards is not None:
        # CI crash harness: die hard (no atexit, no cleanup) once N shard
        # checkpoints are durable, so --resume has something real to recover
        import os
        import signal as signal_module

        kill_after = max(1, args.sigkill_after_shards)

        def _die_after(label: str, completed: int) -> None:
            if completed >= kill_after:
                print(f"sigkill-after-shards: {completed} checkpoint(s) durable, "
                      f"dying after shard {label}", flush=True)
                os.kill(os.getpid(), signal_module.SIGKILL)

        orchestrator.on_shard_checkpoint = _die_after
    print(f"orchestrating {shards}-shard fleet ({args.plan} plan, {args.model}) ...")
    fleet = orchestrator.run(
        malware,
        publish=args.publish,
        label=f"{args.model} fleet",
        resume=args.resume,
    )
    if fleet.resumed:
        print(f"resumed {len(fleet.resumed)} checkpointed shard(s): "
              + ", ".join(fleet.resumed))
    print(fleet.describe())
    if fleet.version is None:
        print("no rules survived alignment; nothing published", file=sys.stderr)
        return 1
    for record in fleet.version.provenance:
        print(f"  shard {record.describe()}")

    delta = service.last_rescan
    if delta is not None:
        print(delta.describe())
    print("\nregistry state:")
    print(service.registry.describe())

    batch = service.scan_batch(scan_targets)
    malicious = sum(
        1 for d in batch.detections if d.predicted(batch.result.match_threshold)
    )
    print(
        f"\nscanned {batch.packages} packages with ruleset v{batch.ruleset_version}: "
        f"{malicious} flagged malicious "
        f"({batch.cache_hits} served straight from the re-scan's cache fill)"
    )

    if args.output:
        output = fleet.rule_set.save(args.output)
        print(f"wrote merged rule files under {output}")
    if args.json:
        report = {
            "fleet": fleet.to_dict(),
            "rescan": delta.to_dict() if delta is not None else None,
            "registry_versions": service.registry.versions(),
            "active_version": service.registry.current_version(),
            "scanned_packages": batch.packages,
            "flagged_malicious": malicious,
        }
        if recovery is not None:
            report["recovery"] = recovery.to_dict()
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(
            json_module.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote report to {args.json}")
    if store is not None:
        service.registry.snapshot()  # fold the run into one recovery point
    return 0


def _cmd_registry(args) -> int:
    """`rulellm registry` on a store: the registry is recovered from its
    snapshot + journal tail, and every change is journaled back."""
    from repro.scanserve import RulesetRegistry
    from repro.store import JournalCorruption

    root = Path(args.dir)
    opened = _open_existing_store(
        root, "import a v<N>/+ACTIVE registry directory with "
              f"'rulellm store migrate {root} DEST'",
    )
    if opened is None:
        return 1
    store, report = opened
    with store:
        try:
            registry = RulesetRegistry.from_store(store)
        except JournalCorruption as exc:
            return _store_unrecoverable(root, exc)
        for note in registry.recovery_notes:
            print(f"note: {note}", file=sys.stderr)

        if args.registry_command == "list":
            if not report.ok:
                print(report.describe(), file=sys.stderr)
            print(registry.describe())
            return 0

        if args.version not in registry.versions():
            known = ", ".join(f"v{v}" for v in registry.versions()) or "none"
            print(f"unknown version v{args.version} in store {root} "
                  f"(known: {known})", file=sys.stderr)
            return 1

        if args.registry_command == "activate":
            registry.activate(args.version)
            registry.snapshot()
            print(f"activated v{args.version}")
            return 0

        if args.registry_command == "retire":
            try:
                record = registry.retire(
                    args.version, reason=args.reason, retired_by=args.retired_by
                )
            except ValueError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            registry.snapshot()
            if record is not None:
                print(record.describe())
            return 0
    return 2


# -- gateway serving ----------------------------------------------------------------
def _parse_tenant_spec(spec: str, default_quota):
    """``NAME[:CAPACITY[:REFILL]]`` -> (name, TenantQuota)."""
    from repro.gateway import TenantQuota

    name, _, rest = spec.partition(":")
    if not rest:
        return name, default_quota
    capacity, _, refill = rest.partition(":")
    return name, TenantQuota(
        capacity=float(capacity),
        refill_per_second=float(refill) if refill else default_quota.refill_per_second,
        max_pending_jobs=default_quota.max_pending_jobs,
    )


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.gateway import (
        GatewayApp,
        GatewayConfig,
        GatewayHttpServer,
        TenantQuota,
    )

    if args.trace:
        from repro.obs import configure_tracing

        configure_tracing(sink=args.trace)
        print(f"tracing enabled -> {args.trace} (inspect with 'rulellm obs')")

    default_quota = TenantQuota(capacity=args.capacity, refill_per_second=args.refill)
    config = GatewayConfig(
        workers=max(1, args.workers),
        history_limit=max(1, args.history),
        default_quota=default_quota,
        auto_register=not args.no_auto_tenant,
        model=args.model,
        seed=args.seed,
    )

    store = None
    if args.store:
        from repro.store import open_store

        store, recovery = open_store(args.store)
        print(recovery.describe())

    async def main() -> int:
        app = await GatewayApp(config, store=store).start()
        if app.interrupted_jobs:
            print(f"marked {len(app.interrupted_jobs)} job(s) from the previous "
                  f"run as interrupted")
        for spec in args.tenant:
            name, quota = _parse_tenant_spec(spec, default_quota)
            tenant = app.register_tenant(name, quota)
            print(f"registered tenant {tenant.name} "
                  f"(burst {quota.capacity:g}, {quota.refill_per_second:g}/s)")
        server = GatewayHttpServer(app, host=args.host, port=args.port)
        port = await server.start()
        print(f"gateway listening on http://{args.host}:{port} "
              f"({config.workers} workers, model {config.model})", flush=True)
        if args.ready_file:
            Path(args.ready_file).write_text(
                f"{args.host} {port}\n", encoding="utf-8"
            )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # non-unix event loops
                pass
        await stop.wait()
        print("shutting down: draining in-flight jobs ...", flush=True)
        await server.stop()
        await app.shutdown(drain=True)
        if store is not None:
            store.close()
        counts = app.jobs.counts()
        print(f"gateway stopped (jobs: {counts})")
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


def _client_corpus(args):
    """Packages for a client submission: directories, or a synthetic corpus."""
    if args.packages:
        package_dirs = _discover_package_dirs(args.packages)
        return [load_package_from_directory(path) for path in package_dirs]
    dataset = build_dataset(DatasetConfig(scale=args.scale, seed=args.seed))
    if args.client_command == "generate":
        return dataset.malware
    return dataset.packages


def _client_write_json(payload, json_path) -> None:
    if json_path:
        import json as json_module

        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(json_path).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {json_path}")


def _print_job(job: dict) -> None:
    line = f"job {job['id']} [{job['tenant']}] {job['state']}"
    if job.get("error"):
        line += f": {job['error']}"
    print(line)
    result = job.get("result")
    if result:
        if "summary" in result:
            print(f"  {result['summary']}")
        if "flagged" in result:
            print(f"  {result['malicious']}/{result['packages']} flagged malicious "
                  f"({result['packages_per_second']:.1f} pkg/s, "
                  f"v{result['ruleset_version']})")


def _cmd_client(args) -> int:
    from repro.gateway import GatewayClient, GatewayError, RateLimited

    client = GatewayClient(args.url)
    try:
        return _run_client_command(client, args)
    except RateLimited as exc:
        print(f"rate limited: {exc} (retry after {exc.retry_after:.1f}s)",
              file=sys.stderr)
        return 3
    except GatewayError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach gateway at {args.url}: {exc}", file=sys.stderr)
        return 1


def _run_client_command(client, args) -> int:
    if args.client_command == "health":
        health = client.health()
        print(f"ok={health['ok']} tenants={health['tenants']} jobs={health['jobs']}")
        return 0

    if args.client_command == "metrics":
        if args.format == "prom":
            sys.stdout.write(client.metrics_text())
            return 0
        metrics = client.metrics()
        if args.format == "json":
            import json as json_module

            print(json_module.dumps(metrics, indent=2, sort_keys=True))
            _client_write_json(metrics, args.json)
            return 0
        jobs = metrics["jobs"]
        print(f"jobs: {jobs.get('queued', 0)} queued, "
              f"{jobs.get('running', 0)} running, "
              f"{sum(jobs.values())} total; "
              f"accepting={metrics['accepting']} "
              f"open_feeds={metrics['open_feeds']}")
        for tenant in metrics["tenants"]:
            print(f"  {tenant['name']}: queue_depth={tenant['queue_depth']} "
                  f"running={tenant['running']} "
                  f"submitted={tenant['jobs_submitted']} "
                  f"quota_rejections={tenant['quota_rejections']}")
        _client_write_json(metrics, args.json)
        return 0

    if args.client_command == "events":
        report = client.events(args.tenant, after=args.after, wait=args.wait)
        for note in report["notifications"]:
            payload = note["payload"]
            if note["kind"] == "publish":
                detail = (f"v{payload['version']} ({payload['rule_count']} rules, "
                          f"{payload['kind']})")
            elif note["kind"] == "rescan":
                detail = (f"-> v{payload['to_version']}: {len(payload['new'])} new, "
                          f"{len(payload['changed'])} changed, "
                          f"{len(payload['cleared'])} cleared")
            else:
                detail = str(payload)
            print(f"#{note['seq']} {note['kind']}: {detail}")
        print(f"cursor: {report['cursor']}")
        _client_write_json(report, args.json)
        return 0

    if args.client_command == "status":
        job = client.job(args.tenant, args.job, wait=args.wait)
        _print_job(job)
        _client_write_json(job, args.json)
        return 0 if job["state"] != "failed" else 1

    if args.client_command == "cancel":
        job = client.cancel_job(args.tenant, args.job)
        _print_job(job)
        return 0

    packages = _client_corpus(args)
    if not packages:
        print("no packages to submit", file=sys.stderr)
        return 1

    if args.client_command == "scan":
        job = client.submit_scan_with_retry(
            args.tenant, packages, label=args.label
        )
        print(f"submitted scan job {job['id']} ({len(packages)} packages)")
    else:  # generate: open feed, stream batches, close
        job = client.open_generation(args.tenant, label=args.label)
        print(f"opened generation feed {job['id']}")
        batches = max(1, min(args.batches, len(packages)))
        chunk = -(-len(packages) // batches)
        for start in range(0, len(packages), chunk):
            fed = client.feed_generation(
                args.tenant, job["id"], packages[start:start + chunk]
            )
            print(f"  fed {fed['fed']} packages")
        client.close_generation(args.tenant, job["id"])
        print("feed closed; generation running")

    if args.wait > 0:
        job = client.wait_job(args.tenant, job["id"], timeout=args.wait)
    else:
        job = client.job(args.tenant, job["id"])
    _print_job(job)
    _client_write_json(job, args.json)
    return 0 if job["state"] != "failed" else 1


# -- arena --------------------------------------------------------------------------
def _arena_show(args) -> int:
    """`arena leaderboard|history`: read the rounds a store journaled.

    Reads the journal's files without opening the store, so nothing is
    repaired or swept and a live `arena run --store` is left undisturbed.
    """
    from repro.arena import Leaderboard, replay_rounds
    from repro.arena.runner import journaled_rounds, round_summary
    from repro.store import JournalCorruption
    from repro.store.journal import ARENA_ROUND, read_journal
    from repro.store.recovery import JOURNAL_DIR

    root = Path(args.dir)
    if not _has_store(root, f"run 'rulellm arena run --store {root}' first"):
        return 1
    try:
        records = [
            record for record in read_journal(root / JOURNAL_DIR)
            if record.type == ARENA_ROUND
        ]
    except JournalCorruption as exc:
        return _store_unrecoverable(root, exc)

    if args.arena_command == "leaderboard":
        board = Leaderboard()
        replay_rounds(records, board)
        print(board.describe(limit=args.limit))
        _client_write_json(board.to_dict(), args.json)
        return 0

    rounds = [round_summary(record.data) for record in journaled_rounds(records)]
    if not rounds:
        print("(no rounds recorded)")
    for record in rounds[-args.limit:]:
        retired = record.get("retired_rules", [])
        extras = []
        if retired:
            extras.append(f"retired {len(retired)} rule(s)")
        if record.get("refeed_version") is not None:
            extras.append(f"refeed -> v{record['refeed_version']}")
        suffix = f" [{'; '.join(extras)}]" if extras else ""
        print(f"round {record['index']} v{record['version']}: "
              f"{record['packages']} pkgs "
              f"({record['malicious']} malicious){suffix}")
    _client_write_json({"rounds": rounds}, args.json)
    return 0


def _cmd_arena(args) -> int:
    if args.arena_command in ("leaderboard", "history"):
        return _arena_show(args)

    from repro.scanserve import ScanService, ScanServiceConfig

    dataset = build_dataset(DatasetConfig(scale=args.scale, seed=args.seed))
    print(f"corpus: {len(dataset.malware)} malicious, "
          f"{len(dataset.benign)} benign packages")

    # the service and the store close on every exit path, the service first
    with ExitStack() as resources:
        store = None
        registry = None
        if args.store:
            from repro.scanserve import RulesetRegistry
            from repro.store import open_store

            store, recovery = open_store(args.store)
            resources.enter_context(store)
            print(recovery.describe())
            registry = RulesetRegistry.from_store(store)
        service = resources.enter_context(ScanService(
            registry=registry,
            config=ScanServiceConfig(mode="inprocess", match_threshold=1)
        ))
        return _arena_run(args, dataset, service, store)


def _arena_run(args, dataset, service, store) -> int:
    """`rulellm arena run` on an open service (and store, if any)."""
    import json as json_module

    from repro.api import GenerationSession
    from repro.arena import (
        ArenaConfig,
        ArenaRunner,
        LifecyclePolicy,
        ReplayTraffic,
        TrafficConfig,
    )

    session = GenerationSession(
        config=RuleLLMConfig.full(model=args.model, seed=args.seed),
        registry=service.registry,
    )
    session.add_batch(dataset.malware)
    baseline = session.generate(label="arena-baseline")
    print(f"baseline: v{baseline.version.version} "
          f"({len(baseline.rule_set.rules)} rules)")

    traffic = ReplayTraffic(dataset.malware, TrafficConfig(
        seed=args.seed,
        packages_per_round=max(2, args.packages_per_round),
        obfuscation_base=0.0,
        obfuscation_step=args.obfuscation_step,
    ))
    retire_after = max(1, args.retire_after)
    runner = ArenaRunner(
        service,
        traffic,
        policy=LifecyclePolicy(
            decay_threshold=args.decay_threshold,
            flag_after=1,
            quarantine_after=max(1, retire_after - 1),
            retire_after=retire_after,
        ),
        config=ArenaConfig(
            policy=args.policy,
            refeed=not args.no_refeed,
            model=args.model,
            seed=args.seed,
        ),
        store=store,
    )
    runner.register_sources(baseline.version.version, baseline.rule_set)
    if runner.next_round_index:
        print(f"resuming at round {runner.next_round_index} with "
              f"{len(runner.leaderboard)} rule(s) on the journaled leaderboard")

    for _ in range(max(1, args.rounds)):
        record = runner.run_round()
        print(record.describe())
        for action in record.actions:
            print(f"  {action.describe()}")

    print("\nleaderboard:")
    print(runner.leaderboard.describe(limit=10))
    retirements = service.registry.retirements()
    if retirements:
        print("\nretired versions:")
        for tombstone in retirements:
            print(f"  {tombstone.describe()}")

    if args.json:
        report = {
            "seed": args.seed,
            "policy": args.policy,
            "baseline_version": baseline.version.version,
            "rounds": [record.to_dict() for record in runner.history],
            "retirements": [tombstone.to_dict() for tombstone in retirements],
            "leaderboard": runner.leaderboard.to_dict(),
        }
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(
            json_module.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.json}")
    if store is not None:
        service.registry.snapshot()  # fold the run into one recovery point
    return 0


def _cmd_evaluate(args) -> int:
    dataset_config = DatasetConfig(scale=args.scale, seed=args.seed)
    if args.scale < 0.5:
        dataset_config.benign_modules_range = (3, 6)
        dataset_config.benign_pieces_per_module_range = (8, 16)
    suite = ExperimentSuite(dataset_config, RuleLLMConfig.full(model=args.model, seed=args.seed))
    print(suite.table8_baselines().render())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="rulellm", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_scan(subparsers)
    _add_scan_batch(subparsers)
    _add_pipeline(subparsers)
    _add_orchestrate(subparsers)
    _add_registry(subparsers)
    _add_store(subparsers)
    _add_serve(subparsers)
    _add_client(subparsers)
    _add_arena(subparsers)
    _add_evaluate(subparsers)
    _add_obs(subparsers)
    args = parser.parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "scan-batch":
        return _cmd_scan_batch(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "orchestrate":
        return _cmd_orchestrate(args)
    if args.command == "registry":
        return _cmd_registry(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "arena":
        return _cmd_arena(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "obs":
        return _cmd_obs(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
